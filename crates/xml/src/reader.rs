//! Incremental (chunk-at-a-time) XML parsing: the true streaming entry
//! point. [`crate::parse`] needs the whole document in memory;
//! [`StreamingParser`] accepts arbitrary byte-chunk boundaries and emits
//! events as soon as they are complete, so a filter can run over documents
//! far larger than RAM — the setting the paper's space bounds are about.
//!
//! The parser's native output is the *interned* event surface
//! ([`StreamingParser::feed_interned`] → [`SymEvent`]): element and
//! attribute names are interned into the parser's shared [`Symbols`]
//! table and payloads borrow reusable scratch buffers, so steady-state
//! parsing performs **zero heap allocations per element event**. Owned
//! [`crate::Event`]s are one [`SymEvent::to_owned`] away, for callers
//! that want them (fixtures, the pull-based [`crate::EventIter`]).
//!
//! The inner byte scan is built on [`crate::scan`] — SWAR word-at-a-time
//! structural search for `<`, `>`, `&`, and quote delimiters — and text
//! spans containing no `&` are emitted as borrowed slices of the input
//! buffer with no entity decoding and no copy. Raw byte chunks enter
//! through [`StreamingParser::feed_interned_bytes`], which validates
//! UTF-8 once per chunk and carries a scalar split across chunk
//! boundaries (see [`crate::source::Utf8Carry`]).

use crate::batch::{EventBatch, BATCH_BYTES, BATCH_EVENTS};
use crate::escape::decode_entities_into;
use crate::parser::ParseError;
use crate::scan;
use crate::source::Utf8Carry;
use crate::span::Span;
use crate::symbols::{AttrBuf, Sym, SymCache, SymEvent, Symbols, SymbolsSnapshot};
use std::io::Read;
use std::sync::Arc;

/// A resumable push parser. Feed it string chunks; it emits events through
/// a callback and buffers only the current incomplete token.
#[derive(Debug, Clone)]
pub struct StreamingParser {
    buf: String,
    /// Consumed prefix of `buf`: tokens advance this cursor instead of
    /// draining the buffer (an O(remaining) memmove per token — on a
    /// batch feed that is quadratic in document size). The buffer
    /// compacts once per `feed`, amortizing the move to O(1) per byte.
    pos: usize,
    symbols: Arc<Symbols>,
    /// When false (see [`StreamingParser::lookup_only`]), document
    /// names are *resolved* against the table read-only instead of
    /// interned: names outside the compiled vocabulary collapse to
    /// [`Sym::UNKNOWN`] and the shared table never grows with document
    /// content — the bounded-memory mode the engine's reader path uses.
    intern_names: bool,
    /// A frozen view of the table (see [`StreamingParser::frozen`]):
    /// when set, name resolution goes through this immutable snapshot
    /// instead of the live table — no lock even on memo misses, the
    /// worker-thread mode. Implies lookup-only resolution.
    snapshot: Option<std::sync::Arc<SymbolsSnapshot>>,
    /// Per-parser lock-free memo over the table.
    name_cache: SymCache,
    /// Open elements: `(sym, name start)` where the second field is
    /// the byte offset of this element's name in
    /// [`StreamingParser::name_arena`]. End tags are matched by
    /// *string*, which stays exact when unknown names share a sym.
    stack: Vec<(Sym, u32)>,
    /// The names of all open elements, concatenated in stack order —
    /// the top element's name is always the arena's suffix, so a pop
    /// is a `truncate`. One growing buffer instead of a `String` per
    /// depth keeps fresh parsers allocation-light and the end-tag
    /// memcmp cache-local.
    name_arena: String,
    /// Number of live `stack` entries (the rest are retired slots kept
    /// for reuse).
    depth: usize,
    started: bool,
    finished: bool,
    consumed: usize,
    keep_whitespace: bool,
    /// Incomplete UTF-8 scalar split across byte-chunk feeds
    /// ([`StreamingParser::feed_interned_bytes`]).
    utf8_carry: Utf8Carry,
    /// Reused entity-decoded text buffer; `Text` events with entities
    /// borrow it (entity-free text borrows `buf` directly).
    text_scratch: String,
    /// Reused attribute slots; `StartElement` events borrow them.
    attrs: AttrBuf,
    /// Reused structural index: positions of `<` `>` `"` `'` `&` in the
    /// unconsumed buffer, rebuilt by one SWAR pass per drain.
    struct_idx: Vec<u32>,
    /// Reused read buffer for [`StreamingParser::drive_reader`].
    io_chunk: Vec<u8>,
    /// Reused event batch for [`StreamingParser::drive_batched`]:
    /// recycled (`clear` keeps arena capacity) so the batched drive
    /// allocates nothing per event in steady state.
    ev_batch: EventBatch,
}

impl Default for StreamingParser {
    fn default() -> Self {
        StreamingParser::new()
    }
}

impl StreamingParser {
    /// Creates a parser with default options (whitespace-only text
    /// dropped, matching [`crate::parse`]) and a fresh private
    /// [`Symbols`] table.
    pub fn new() -> StreamingParser {
        StreamingParser::with_symbols(Arc::new(Symbols::new()))
    }

    /// Creates a parser interning names into `symbols` — the table the
    /// downstream filters' compiled node tests live in, so interned
    /// events and compiled queries meet as equal integers.
    pub fn with_symbols(symbols: Arc<Symbols>) -> StreamingParser {
        StreamingParser {
            buf: String::new(),
            pos: 0,
            symbols,
            intern_names: true,
            snapshot: None,
            name_cache: SymCache::new(),
            stack: Vec::new(),
            name_arena: String::new(),
            depth: 0,
            started: false,
            finished: false,
            consumed: 0,
            keep_whitespace: false,
            utf8_carry: Utf8Carry::new(),
            text_scratch: String::new(),
            attrs: AttrBuf::new(),
            struct_idx: Vec::new(),
            io_chunk: Vec::new(),
            ev_batch: EventBatch::new(),
        }
    }

    /// Resets per-document state so the parser can stream another
    /// document, keeping everything amortizable warm: the symbol table
    /// handle, the name memo, and every scratch buffer's capacity.
    /// Sessions reuse one parser across documents this way instead of
    /// rebuilding scratch per document.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.depth = 0;
        self.name_arena.clear();
        self.started = false;
        self.finished = false;
        self.consumed = 0;
        self.utf8_carry.clear();
    }

    /// The symbol table this parser interns names into.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Drops every memoized name verdict. A lookup-only parser memoizes
    /// [`Sym::UNKNOWN`] for names outside the table; if the shared table
    /// later gains such a name (a dissemination server compiling a new
    /// subscription), the stale memo would keep collapsing it to
    /// `UNKNOWN`. Call this after interning new names behind a live
    /// parser; [`StreamingParser::reset`] deliberately keeps the memo
    /// warm.
    ///
    /// In a worker pool, *every* worker must invalidate its own parser
    /// when churn grows the shared table — see the multi-worker caveat
    /// on [`SymCache`]. A [`StreamingParser::frozen`] parser re-freezes
    /// its snapshot here too, so the new vocabulary becomes visible to
    /// its lock-free path.
    pub fn invalidate_name_memo(&mut self) {
        self.name_cache.clear();
        if self.snapshot.is_some() {
            self.snapshot = Some(std::sync::Arc::new(self.symbols.freeze()));
        }
    }

    /// Keeps whitespace-only text nodes.
    pub fn keep_whitespace(mut self) -> StreamingParser {
        self.keep_whitespace = true;
        self
    }

    /// Switches to *lookup-only* name resolution: document names are
    /// resolved against the (shared) table without interning — names
    /// the table has never seen collapse to [`Sym::UNKNOWN`], exactly
    /// as the filters' owned-event conversion treats them (they fail
    /// every named node test and pass every wildcard), and the table
    /// never grows with document content. This is how a long-lived
    /// engine keeps bounded memory on streams with unbounded
    /// distinct-name cardinality; the default interning mode instead
    /// guarantees distinct syms per distinct name (what
    /// [`SymEvent::to_owned`] needs to give every name back — on a
    /// lookup-only stream it renders unknown names as one sentinel).
    ///
    /// Compile every query against the table *before* parsing: the
    /// per-parser memo caches "unknown" verdicts (see
    /// [`crate::SymCache`]).
    pub fn lookup_only(mut self) -> StreamingParser {
        self.intern_names = false;
        self
    }

    /// [`StreamingParser::lookup_only`] resolution against a **frozen
    /// snapshot** of the parser's table, taken now: name resolution
    /// never touches the live table's lock again — not even on memo
    /// misses — which is what lets N worker parsers share one
    /// engine-owned table with zero read contention. The snapshot
    /// carries exactly the vocabulary interned so far (compile every
    /// query first); if the table later grows behind this parser, call
    /// [`StreamingParser::invalidate_name_memo`], which re-freezes.
    pub fn frozen(mut self) -> StreamingParser {
        self.intern_names = false;
        self.snapshot = Some(std::sync::Arc::new(self.symbols.freeze()));
        self
    }

    /// Resolves a name per the parser's mode: memoized lookup against
    /// the frozen snapshot (lock-free) or the live table, plus
    /// interning (and memo refresh) on a miss in the default mode.
    fn resolve_name(&mut self, name: &str) -> Sym {
        match &self.snapshot {
            Some(snap) => self.name_cache.lookup_frozen(snap, name),
            None => self
                .name_cache
                .lookup_or_intern(&self.symbols, name, self.intern_names),
        }
    }

    /// Pushes an open element, appending its name to the arena, so the
    /// end-tag hot path is one name memcmp against the tag's interior
    /// — no trimming, no extraction.
    fn stack_push(&mut self, sym: Sym, name: &str) {
        let start = self.name_arena.len() as u32;
        self.name_arena.push_str(name);
        if self.depth == self.stack.len() {
            self.stack.push((sym, start));
        } else {
            self.stack[self.depth] = (sym, start);
        }
        self.depth += 1;
    }

    /// The name of the innermost open element — always the arena's
    /// suffix.
    fn top_name(&self) -> (Sym, usize, &str) {
        let (sym, start) = self.stack[self.depth - 1];
        (sym, start as usize, &self.name_arena[start as usize..])
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: 0,
            column: self.consumed + 1,
        }
    }

    /// Feeds a chunk, emitting every completed event in *interned*,
    /// zero-copy form: names are [`Sym`]s from the parser's table,
    /// attribute and text payloads borrow the parser's reusable scratch
    /// buffers (valid for the duration of the callback). In steady
    /// state — names already interned, scratch capacities warm — a
    /// start/end element event allocates nothing.
    pub fn feed_interned<F: FnMut(SymEvent<'_>, Span)>(
        &mut self,
        chunk: &str,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.compact();
        if self.buf.is_empty() {
            // Zero-copy fast path: no partial token is buffered, so the
            // chunk itself is the input — parse in place and buffer only
            // the incomplete tail for the next feed.
            let result = self.drain_slice(chunk, false, emit);
            self.buf.push_str(&chunk[self.pos..]);
            self.pos = 0;
            return result;
        }
        self.buf.push_str(chunk);
        self.drain(false, emit)
    }

    /// [`StreamingParser::feed_interned`] over raw bytes with arbitrary
    /// chunk boundaries: validates UTF-8 **once per chunk** and carries
    /// a trailing scalar split across the boundary to the next feed —
    /// any split point, including mid-character, is safe. This is the
    /// surface reader drivers use; don't interleave it mid-scalar with
    /// the `&str` feeds (a pending carry would reorder bytes).
    pub fn feed_interned_bytes<F: FnMut(SymEvent<'_>, Span)>(
        &mut self,
        chunk: &[u8],
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.compact();
        if self.buf.is_empty() && self.utf8_carry.is_empty() {
            // Zero-copy fast path: nothing carried, so if the chunk is
            // wholly valid UTF-8 it can be parsed in place like
            // [`StreamingParser::feed_interned`] does. A chunk that
            // fails whole-validation (split trailing scalar, or truly
            // invalid bytes) takes the carry path below, which
            // distinguishes the two.
            if let Ok(s) = std::str::from_utf8(chunk) {
                let result = self.drain_slice(s, false, emit);
                self.buf.push_str(&s[self.pos..]);
                self.pos = 0;
                return result;
            }
        }
        let mut carry = self.utf8_carry;
        let fed = carry.feed(chunk, &mut |s| {
            self.buf.push_str(s);
            Ok(())
        });
        self.utf8_carry = carry;
        fed?;
        self.drain(false, emit)
    }

    /// Drops the consumed prefix of the buffer (cheap when it was fully
    /// consumed, one move of the unconsumed tail otherwise).
    fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.pos);
        }
        self.pos = 0;
    }

    /// The unconsumed input.
    fn pending(&self) -> &str {
        &self.buf[self.pos..]
    }

    /// Signals end of input; emits any trailing events (including
    /// `EndDocument`) and verifies completeness.
    pub fn finish_interned<F: FnMut(SymEvent<'_>, Span)>(
        &mut self,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.utf8_carry.finish()?;
        self.drain(true, emit)?;
        if !self.pending().trim().is_empty() {
            return Err(self.err("unexpected trailing content at end of input"));
        }
        if self.depth > 0 {
            return Err(self.err(format!("unclosed element `{}`", self.top_name().2)));
        }
        if !self.started {
            return Err(self.err("empty document"));
        }
        if self.finished {
            return Err(self.err("finish called twice"));
        }
        self.finished = true;
        emit(SymEvent::EndDocument, Span::point(self.consumed as u64));
        Ok(())
    }

    /// Streams a whole document from `reader` through the interned
    /// surface: the engine's zero-copy hot path. Reads fixed-size
    /// chunks, carries split UTF-8 scalars across boundaries, feeds and
    /// finishes. Parser memory is bounded by the chunk plus the largest
    /// single XML token, never by document size — and in
    /// [`StreamingParser::lookup_only`] mode (how the engine drives
    /// this) the shared symbol table stays bounded by the compiled
    /// query vocabulary too; the default interning mode instead grows
    /// the table with the document's *distinct* names.
    pub fn drive_reader<R: Read, F: FnMut(SymEvent<'_>, Span)>(
        &mut self,
        mut reader: R,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        // Take the reused read buffer out for the loop (so reads and
        // the feed can borrow `self` independently) and restore it on
        // every exit path.
        let mut chunk = std::mem::take(&mut self.io_chunk);
        let result = crate::source::drive_byte_chunks(&mut reader, &mut chunk, &mut |bytes| {
            self.feed_interned_bytes(bytes, emit)
        })
        .and_then(|()| self.finish_interned(emit));
        self.io_chunk = chunk;
        result
    }

    /// Streams a whole document from `reader` as *batches*: the parser
    /// fills its own recycled [`EventBatch`] (events plus spans, arenas
    /// reused — zero allocation per event in steady state) and hands
    /// each full batch to `consume`, cutting on [`BATCH_EVENTS`] events
    /// or [`BATCH_BYTES`] payload bytes. One virtual call per batch
    /// replaces one per event — the dispatch-amortized hot path
    /// `Session::run_reader*` rides. The batch borrow handed to
    /// `consume` is only valid for that call; the producer clears and
    /// refills it afterwards.
    pub fn drive_batched<R: Read>(
        &mut self,
        mut reader: R,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        let mut batch = std::mem::take(&mut self.ev_batch);
        batch.clear();
        let mut chunk = std::mem::take(&mut self.io_chunk);
        let result = crate::source::drive_byte_chunks(&mut reader, &mut chunk, &mut |bytes| {
            self.feed_interned_bytes(bytes, &mut |ev, span| batch.push(&ev, span))?;
            if batch.len() >= BATCH_EVENTS || batch.payload_bytes() >= BATCH_BYTES {
                consume(&batch);
                batch.clear();
            }
            Ok(())
        })
        .and_then(|()| self.finish_interned(&mut |ev, span| batch.push(&ev, span)));
        if result.is_ok() && !batch.is_empty() {
            consume(&batch);
        }
        batch.clear();
        self.io_chunk = chunk;
        self.ev_batch = batch;
        result
    }

    // The whole internal drain chain is generic over the emit closure
    // (`?Sized` keeps `&mut dyn FnMut` callers working): a concrete
    // closure handed to the public generic surface monomorphizes all
    // the way into the token loop — the filter inlines into the
    // tokenizer, with no virtual call per event.
    fn drain<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        at_eof: bool,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        // Take the buffer out so tags and text can be handled as plain
        // slices of it while `&mut self` stays free for state updates —
        // this is what lets a tag be parsed in place, with no scratch
        // copy, and entity-free text be emitted borrowed.
        let buf = std::mem::take(&mut self.buf);
        let result = self.drain_slice(&buf, at_eof, emit);
        self.buf = buf;
        result
    }

    /// [`StreamingParser::drain`] over any input slice (the internal
    /// buffer, or — the zero-copy fast path — the caller's own chunk).
    /// One SWAR pass builds the structural index; the token loop then
    /// walks delimiter *positions* instead of re-scanning bytes.
    fn drain_slice<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        buf: &str,
        at_eof: bool,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let mut idx = std::mem::take(&mut self.struct_idx);
        idx.clear();
        assert!(
            buf.len() <= u32::MAX as usize,
            "single buffered token exceeds 4 GiB"
        );
        // Pre-size to the worst typical density (~1 delimiter per 4
        // bytes) so a cold index reaches capacity in one reallocation
        // instead of a doubling cascade.
        idx.reserve((buf.len() - self.pos) / 4);
        scan::positions_xml(buf.as_bytes(), self.pos, &mut idx);
        let result = self.drain_buf(buf, &idx, at_eof, emit);
        self.struct_idx = idx;
        result
    }

    fn drain_buf<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        buf: &str,
        idx: &[u32],
        at_eof: bool,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let bytes = buf.as_bytes();
        let mut k = 0usize; // cursor into the structural index
        loop {
            // Walk the index to the next `<` at or after the cursor,
            // noting the last `&` passed on the way (text entities).
            let mut last_amp = usize::MAX;
            let mut lt = None;
            while k < idx.len() {
                let p = idx[k] as usize;
                if p >= self.pos {
                    match bytes[p] {
                        b'<' => {
                            lt = Some(p);
                            break;
                        }
                        b'&' => last_amp = p,
                        _ => {} // `>` and quotes are plain text here
                    }
                }
                k += 1;
            }
            match lt {
                Some(p) if p == self.pos => {}
                Some(p) => {
                    self.take_text(buf, p - self.pos, last_amp, emit)?;
                    if self.pos < p {
                        // The text directly before the tag ends in a
                        // held-back entity fragment ("&am…" with no
                        // `;`); a tag can never complete it.
                        return Err(self.err("unterminated entity reference before tag"));
                    }
                    continue;
                }
                None => {
                    let len = buf.len() - self.pos;
                    if at_eof && len > 0 {
                        self.take_text(buf, len, last_amp, emit)?;
                    }
                    return Ok(());
                }
            }
            // A tag begins at the cursor; find its end, respecting the
            // multi-character terminators of comments/CDATA/PIs and
            // quoted attribute values (which may contain `>`).
            let Some((tag_len, k_next)) = self.tag_region(bytes, idx, k)? else {
                return Ok(()); // incomplete: wait for more input
            };
            k = k_next;
            let tag = &buf[self.pos..self.pos + tag_len];
            self.pos += tag_len;
            self.consumed += tag_len;
            let span = Span::new((self.consumed - tag_len) as u64, self.consumed as u64);
            self.handle_tag(tag, span, emit)?;
        }
    }

    fn take_text<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        buf: &str,
        len: usize,
        last_amp: usize, // absolute position of the last `&`, or usize::MAX
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let text = &buf[self.pos..self.pos + len];
        // Entity-free text (the overwhelmingly common case) needs no
        // decoding and no hold-back: the raw slice is the payload.
        let (end, decoded) = if last_amp == usize::MAX {
            (len, false)
        } else {
            // Hold back a trailing fragment that may be a split entity
            // reference ("&am" + "p;").
            let amp = last_amp - self.pos;
            let end = if scan::memchr(b';', &text.as_bytes()[amp..]).is_none() {
                amp
            } else {
                len
            };
            if end == 0 {
                return Ok(());
            }
            self.text_scratch.clear();
            if let Err(e) = decode_entities_into(&text[..end], &mut self.text_scratch) {
                return Err(self.err(e.to_string()));
            }
            (end, true)
        };
        self.pos += end;
        self.consumed += end;
        let span = Span::new((self.consumed - end) as u64, self.consumed as u64);
        let content: &str = if decoded {
            &self.text_scratch
        } else {
            &text[..end]
        };
        if self.keep_whitespace || !is_all_whitespace(content) {
            if self.depth == 0 {
                return Err(self.err("text content outside the root element"));
            }
            emit(SymEvent::Text { content }, span);
        }
        Ok(())
    }

    /// Extent of the complete tag whose `<` sits at `idx[k]` (== the
    /// cursor): `(byte length, index entry just past the tag)`, or
    /// `None` if more input is needed. Pure index walk — no byte
    /// re-scanning except the short prefix dispatch and the rare
    /// DOCTYPE form.
    fn tag_region(
        &self,
        bytes: &[u8],
        idx: &[u32],
        k: usize,
    ) -> Result<Option<(usize, usize)>, ParseError> {
        let lt = idx[k] as usize;
        debug_assert_eq!(bytes[lt], b'<');
        let b = &bytes[lt..];
        if matches!(b.get(1), Some(b'!') | Some(b'?')) {
            // Comment / CDATA / PI: a `>` directly preceded by the
            // construct's suffix ends it, quotes notwithstanding.
            let (from, suffix): (usize, &[u8]) = if b.starts_with(b"<!--") {
                (4, b"--")
            } else if b.starts_with(b"<![CDATA[") {
                (9, b"]]")
            } else if b.starts_with(b"<?") {
                (2, b"?")
            } else {
                // DOCTYPE with optional internal subset: bracket-aware
                // byte scan (rare; brackets are not indexed).
                let mut depth = 0usize;
                for (i, &c) in b.iter().enumerate().skip(2) {
                    match c {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => {
                            let end = lt + i + 1;
                            let mut j = k + 1;
                            while j < idx.len() && (idx[j] as usize) < end {
                                j += 1;
                            }
                            return Ok(Some((i + 1, j)));
                        }
                        _ => {}
                    }
                }
                return Ok(None);
            };
            let min = lt + from + suffix.len();
            let mut j = k + 1;
            while j < idx.len() {
                let p = idx[j] as usize;
                if bytes[p] == b'>' && p >= min && &bytes[p - suffix.len()..p] == suffix {
                    return Ok(Some((p + 1 - lt, j + 1)));
                }
                j += 1;
            }
            return Ok(None);
        }
        // A start or end tag: walk delimiter positions, skipping quoted
        // attribute values (which may contain `>` or `<`).
        let mut j = k + 1;
        while j < idx.len() {
            let p = idx[j] as usize;
            match bytes[p] {
                b'>' => return Ok(Some((p + 1 - lt, j + 1))),
                b'<' => return Err(self.err("`<` inside a tag")),
                b'"' | b'\'' => {
                    let quote = bytes[p];
                    j += 1;
                    while j < idx.len() && bytes[idx[j] as usize] != quote {
                        j += 1;
                    }
                    if j >= idx.len() {
                        return Ok(None); // unclosed quote: wait
                    }
                    j += 1;
                }
                _ => j += 1, // `&` inside a tag: nothing structural
            }
        }
        Ok(None)
    }

    fn handle_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        // One byte decides the tag kind; the `<!…`/`<?…` markup forms
        // take the cold path.
        match tag.as_bytes()[1] {
            b'!' | b'?' => self.handle_markup_tag(tag, span, emit),
            b'/' => {
                // Hot path: a well-formed end tag is byte-identical to
                // the expected closer stored at push time — one memcmp,
                // no trimming, no name extraction, no lookup. Matching
                // by bytes stays exact even when several unknown names
                // share a sym in lookup-only mode.
                if self.depth > 0 {
                    let (open_sym, start, open_name) = self.top_name();
                    if *open_name.as_bytes() == tag.as_bytes()[2..tag.len() - 1] {
                        self.depth -= 1;
                        self.name_arena.truncate(start);
                        emit(SymEvent::EndElement { name: open_sym }, span);
                        return Ok(());
                    }
                }
                // Cold path: whitespace inside the closer (`</a >`),
                // a mismatch, or an unopened end tag.
                let name = trim_ws(&tag[2..tag.len() - 1]);
                if self.depth == 0 {
                    return Err(self.err(format!("`</{name}>` without matching start tag")));
                }
                let (open_sym, start, open_name) = self.top_name();
                if open_name != name {
                    return Err(
                        self.err(format!("mismatched `</{name}>`; expected `</{open_name}>`"))
                    );
                }
                self.depth -= 1;
                self.name_arena.truncate(start);
                emit(SymEvent::EndElement { name: open_sym }, span);
                Ok(())
            }
            _ => self.handle_element_tag(tag, span, emit),
        }
    }

    /// `<!…>` / `<?…>` markup: comments, PIs, and DOCTYPE are skipped,
    /// CDATA becomes text, and any other `<!…` form falls through to
    /// the element path (an element named `!…`, as the batch parser
    /// sees it).
    fn handle_markup_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        if tag.starts_with("<!--") || tag.starts_with("<?") || tag.starts_with("<!DOCTYPE") {
            return Ok(());
        }
        if let Some(cdata) = tag
            .strip_prefix("<![CDATA[")
            .and_then(|t| t.strip_suffix("]]>"))
        {
            if self.depth == 0 {
                return Err(self.err("CDATA outside the root element"));
            }
            if !cdata.is_empty() {
                emit(SymEvent::Text { content: cdata }, span);
            }
            return Ok(());
        }
        self.handle_element_tag(tag, span, emit)
    }

    /// A start (or self-closing) tag: `<name attr="v"…>` / `<name…/>`.
    fn handle_element_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let inner = &tag.as_bytes()[1..tag.len() - 1];
        let (inner, self_closing) = match inner.split_last() {
            Some((&b'/', rest)) => (rest, true),
            _ => (inner, false),
        };
        // The name ends at the first splitter byte (the same set
        // `splitn` used); anything after it is the attribute region.
        let mut ne = 0;
        while ne < inner.len() && !matches!(inner[ne], b' ' | b'\t' | b'\r' | b'\n') {
            ne += 1;
        }
        // The `ne` scan guarantees no splitter bytes inside the slice,
        // so the trim can only bite on the exotic edges (0x0B / 0x0C /
        // non-ASCII whitespace) — skip it when both edge bytes are
        // plain ASCII.
        let name_raw = &tag[1..1 + ne];
        let name = match (name_raw.as_bytes().first(), name_raw.as_bytes().last()) {
            (Some(&f), Some(&l))
                if !matches!(f, 0x0B | 0x0C | 0x80..) && !matches!(l, 0x0B | 0x0C | 0x80..) =>
            {
                name_raw
            }
            _ => trim_ws(name_raw),
        };
        if name.is_empty() {
            return Err(self.err("empty tag name"));
        }
        if self.depth == 0 && self.started {
            return Err(self.err("multiple root elements"));
        }
        if ne < inner.len() {
            parse_attrs_into(
                &tag[1 + ne + 1..1 + inner.len()],
                &self.symbols,
                self.snapshot.as_deref(),
                &mut self.name_cache,
                self.intern_names,
                &mut self.attrs,
            )
            .map_err(|m| self.err(m))?;
        } else {
            self.attrs.clear();
        }
        let sym = self.resolve_name(name);
        if !self.started {
            self.started = true;
            emit(SymEvent::StartDocument, Span::point(0));
        }
        emit(
            SymEvent::StartElement {
                name: sym,
                attributes: self.attrs.as_slice(),
            },
            span,
        );
        if self_closing {
            // A self-closing tag is both events; they share its span.
            emit(SymEvent::EndElement { name: sym }, span);
        } else {
            self.stack_push(sym, name);
        }
        Ok(())
    }
}

impl crate::source::EventSource for StreamingParser {
    fn symbols(&self) -> &Arc<Symbols> {
        StreamingParser::symbols(self)
    }

    fn reset(&mut self) {
        StreamingParser::reset(self);
    }

    fn invalidate_name_memo(&mut self) {
        StreamingParser::invalidate_name_memo(self);
    }

    fn drive_batched(
        &mut self,
        reader: &mut dyn Read,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        StreamingParser::drive_batched(self, reader, consume)
    }
}

/// `s.trim()` with a byte-wise fast path: trims the ASCII whitespace
/// edges directly and falls back to the exact Unicode trim only when a
/// non-ASCII byte is left on an edge (which is the only way Unicode
/// whitespace can remain there).
fn trim_ws(s: &str) -> &str {
    let b = s.as_bytes();
    let mut start = 0;
    while start < b.len() && matches!(b[start], b' ' | b'\t' | b'\r' | b'\n' | 0x0B | 0x0C) {
        start += 1;
    }
    let mut end = b.len();
    while end > start && matches!(b[end - 1], b' ' | b'\t' | b'\r' | b'\n' | 0x0B | 0x0C) {
        end -= 1;
    }
    let t = &s[start..end];
    match t.as_bytes() {
        [f, .., l] if *f >= 0x80 || *l >= 0x80 => t.trim(),
        _ => t,
    }
}

/// `trim_ws` for slices whose leading edge is already known clean
/// (e.g. attribute names, which start right after a [`skip_ws`]):
/// only the trailing edge is scanned.
fn trim_ws_end(s: &str) -> &str {
    let b = s.as_bytes();
    let mut end = b.len();
    while end > 0 && matches!(b[end - 1], b' ' | b'\t' | b'\r' | b'\n' | 0x0B | 0x0C) {
        end -= 1;
    }
    let t = &s[..end];
    match t.as_bytes() {
        [.., l] if *l >= 0x80 => t.trim_end(),
        _ => t,
    }
}

/// First index `>= i` in `s` that is not whitespace (`s[i..].trim_start()`
/// as an index), with the same byte-wise fast path as [`trim_ws`].
fn skip_ws(s: &str, mut i: usize) -> usize {
    let b = s.as_bytes();
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\r' | b'\n' | 0x0B | 0x0C => i += 1,
            0x80.. => {
                let rest = &s[i..];
                return i + (rest.len() - rest.trim_start().len());
            }
            _ => break,
        }
    }
    i
}

/// `s.chars().all(char::is_whitespace)` with a byte-wise fast path:
/// bails out at the first non-whitespace ASCII byte (the common case
/// for real text) and falls back to the exact `char` check only when
/// a non-ASCII byte appears first.
fn is_all_whitespace(s: &str) -> bool {
    for (i, &b) in s.as_bytes().iter().enumerate() {
        match b {
            b' ' | b'\t' | b'\r' | b'\n' | 0x0B | 0x0C => {}
            0x80.. => return s[i..].chars().all(char::is_whitespace),
            _ => return false,
        }
    }
    true
}

/// Parses `name="value"` pairs into the reused buffer, resolving names
/// per the parser's mode (interned, or lookup-only with unknown names
/// collapsing to [`Sym::UNKNOWN`]). Duplicates are detected by name
/// *string*, which stays exact under the collapse. Allocation-free in
/// steady state (slot strings and known names are reused).
fn parse_attrs_into(
    s: &str,
    symbols: &Symbols,
    snapshot: Option<&SymbolsSnapshot>,
    cache: &mut SymCache,
    intern_names: bool,
    out: &mut AttrBuf,
) -> Result<(), String> {
    out.clear();
    let s = s.trim_end();
    let b = s.as_bytes();
    let mut i = skip_ws(s, 0);
    while i < b.len() {
        let eq = match scan::memchr(b'=', &b[i..]) {
            Some(p) => i + p,
            None => return Err(format!("expected `=` in attributes: `{}`", &s[i..])),
        };
        let name = trim_ws_end(&s[i..eq]);
        let j = skip_ws(s, eq + 1);
        let q = match b.get(j) {
            Some(&q @ (b'"' | b'\'')) => q,
            _ => return Err("expected quoted attribute value".to_string()),
        };
        let close = match scan::memchr(q, &b[j + 1..]) {
            Some(p) => j + 1 + p,
            None => return Err("unterminated attribute value".to_string()),
        };
        let raw = &s[j + 1..close];
        let sym = match snapshot {
            Some(snap) => cache.lookup_frozen(snap, name),
            None => cache.lookup_or_intern(symbols, name, intern_names),
        };
        // In interning mode distinct names have distinct syms, so the
        // duplicate check is an integer scan and the name string need
        // not be copied at all. Only the lookup-only collapse (unknown
        // names sharing `Sym::UNKNOWN`) requires comparing by text.
        let value = if intern_names {
            if out.contains_name(sym) {
                return Err(format!("duplicate attribute `{name}`"));
            }
            out.push_name(sym)
        } else {
            if out.has_name_str(name) {
                return Err(format!("duplicate attribute `{name}`"));
            }
            out.push_named(sym, name)
        };
        if scan::memchr(b'&', raw.as_bytes()).is_none() {
            value.push_str(raw);
        } else {
            decode_entities_into(raw, value).map_err(|e| e.to_string())?;
        }
        i = skip_ws(s, close + 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::parser::{parse, parse_spanned};

    /// Feeds `xml` to a fresh parser in `chunk`-byte steps and finishes,
    /// collecting owned `(event, span)` pairs through the one interned →
    /// owned conversion. (ASCII fixtures: every byte step is a `&str` cut.)
    fn try_events(xml: &str, chunk: usize) -> Result<Vec<(Event, Span)>, ParseError> {
        let mut parser = StreamingParser::new();
        let symbols = Arc::clone(parser.symbols());
        let mut out = Vec::new();
        let mut emit = |ev: SymEvent<'_>, s: Span| out.push((ev.to_owned(&symbols), s));
        for piece in xml.as_bytes().chunks(chunk) {
            parser.feed_interned(std::str::from_utf8(piece).unwrap(), &mut emit)?;
        }
        parser.finish_interned(&mut emit)?;
        Ok(out)
    }

    fn spanned_events(xml: &str, chunk: usize) -> Vec<(Event, Span)> {
        try_events(xml, chunk).unwrap()
    }

    fn events(xml: &str, chunk: usize) -> Vec<Event> {
        let spanned = spanned_events(xml, chunk);
        spanned.into_iter().map(|(e, _)| e).collect()
    }

    /// Feeds a document in chunks of every size 1..=n and checks the
    /// events match the batch parser.
    fn chunked_equals_batch(xml: &str) {
        let expected = parse(xml).unwrap();
        for chunk_size in 1..=xml.len().min(7) {
            assert_eq!(
                events(xml, chunk_size),
                expected,
                "chunk size {chunk_size} on {xml}"
            );
        }
    }

    #[test]
    fn chunked_parsing_matches_batch() {
        chunked_equals_batch("<a><b>6</b><c/></a>");
        chunked_equals_batch(r#"<a id="1"><b>x &amp; y</b></a>"#);
        chunked_equals_batch("<a><!-- note --><b/></a>");
        chunked_equals_batch("<a><![CDATA[1 < 2]]></a>");
        chunked_equals_batch("<?xml version=\"1.0\"?><r><x/>text</r>");
    }

    #[test]
    fn split_entities_survive_chunking() {
        // Cut after "<a>x &am": the entity straddles the two feeds.
        assert!(events("<a>x &amp; y</a>", 8).contains(&Event::text("x & y")));
    }

    #[test]
    fn attribute_values_with_gt() {
        let xml = r#"<a note="1 > 0"><b/></a>"#;
        chunked_equals_batch(xml);
        match &events(xml, xml.len())[1] {
            Event::StartElement { attributes, .. } => assert_eq!(attributes[0].value, "1 > 0"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_on_mismatch_and_garbage() {
        let mut sink = |_: SymEvent<'_>, _: Span| {};
        let mut p = StreamingParser::new();
        p.feed_interned("<a><b>", &mut sink).unwrap();
        assert!(p.feed_interned("</a>", &mut sink).is_err());

        let mut p2 = StreamingParser::new();
        p2.feed_interned("<a/>", &mut sink).unwrap();
        assert!(p2.feed_interned("<b/>", &mut sink).is_err());

        let mut p3 = StreamingParser::new();
        p3.feed_interned("<a>", &mut sink).unwrap();
        assert!(p3.finish_interned(&mut sink).is_err());
    }

    #[test]
    fn multiple_roots_are_rejected_after_stack_slots_retire() {
        // Regression: the pooled element stack keeps retired slots, so
        // the multiple-roots guard must consult the live depth, not
        // `stack.is_empty()`.
        let mut sink = |_: SymEvent<'_>, _: Span| {};
        let mut p = StreamingParser::new();
        p.feed_interned("<a></a>", &mut sink).unwrap();
        assert!(p.feed_interned("<b></b>", &mut sink).is_err());

        let mut p2 = StreamingParser::new();
        assert!(p2.feed_interned("<a><x/></a><b/>", &mut sink).is_err());
    }

    #[test]
    fn unterminated_entity_before_tag_errors_instead_of_looping() {
        // Regression: "&am" (no `;`) directly before a tag used to spin
        // forever in `drain` — the held-back fragment never shrank.
        let mut p = StreamingParser::new();
        assert!(p.feed_interned("<a>x &am<b/></a>", &mut |_, _| {}).is_err());
    }

    #[test]
    fn errors_carry_a_byte_position() {
        // No line bookkeeping on a stream: `line` is 0 and `column`
        // the 1-based byte just past the offending token, which
        // `Display` prints as a byte position.
        let err = try_events("<a><b></a>", 3).unwrap_err();
        assert_eq!((err.line, err.column), (0, 11));
        assert!(
            err.to_string().starts_with("XML parse error at byte 11: "),
            "{err}"
        );
    }

    #[test]
    fn spans_slice_back_to_the_source() {
        let xml = r#"<a id="1"><b>6</b><c/>t</a>"#;
        for (event, span) in spanned_events(xml, xml.len()) {
            let text = span.slice(xml).expect("span in bounds");
            match event {
                Event::StartElement { ref name, .. } => {
                    assert!(text.starts_with(&format!("<{name}")), "{text}");
                }
                Event::EndElement { ref name } => {
                    // Self-closing tags share the `<c/>` span.
                    assert!(
                        text == format!("</{name}>") || text == format!("<{name}/>"),
                        "{text}"
                    );
                }
                Event::Text { ref content } => assert_eq!(text, content.as_str()),
                Event::StartDocument | Event::EndDocument => assert!(text.is_empty()),
            }
        }
    }

    #[test]
    fn spans_are_chunk_boundary_correct() {
        // Offsets must count stream bytes, not chunk-local positions:
        // every chunking yields identical spans.
        let xml = r#"<a note="1 > 0"><b>x &amp; y</b><![CDATA[q]]><c/></a>"#;
        let reference = spanned_events(xml, xml.len());
        for chunk in 1..=9usize {
            assert_eq!(spanned_events(xml, chunk), reference, "chunk size {chunk}");
        }
    }

    // -- interned surface ---------------------------------------------------

    #[test]
    fn interned_events_match_owned_events_at_every_chunking() {
        // The reference tokenizer's owned events are what the interned
        // stream materializes to, spans included.
        let xml = r#"<a note="1 > 0"><b>x &amp; y</b><![CDATA[q]]><c/>t</a>"#;
        let reference = parse_spanned(xml).unwrap();
        for chunk in [1usize, 2, 3, 7, xml.len()] {
            assert_eq!(spanned_events(xml, chunk), reference, "chunk {chunk}");
        }
    }

    #[test]
    fn interned_names_are_stable_across_occurrences() {
        let mut parser = StreamingParser::new();
        let mut names: Vec<Sym> = Vec::new();
        parser
            .feed_interned("<a><b/><b/><a><b/></a></a>", &mut |ev, _| {
                if let SymEvent::StartElement { name, .. } = ev {
                    names.push(name);
                }
            })
            .unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        assert_eq!(names.len(), 5);
        assert_eq!(names[1], names[2]);
        assert_eq!(names[1], names[4]);
        assert_ne!(names[0], names[1]);
        assert_eq!(parser.symbols().len(), 2);
    }

    #[test]
    fn shared_table_gives_equal_syms_across_parsers() {
        let symbols = Arc::new(Symbols::new());
        let sym_of = |xml: &str| {
            let mut p = StreamingParser::with_symbols(Arc::clone(&symbols));
            let mut first = None;
            p.feed_interned(xml, &mut |ev, _| {
                if let SymEvent::StartElement { name, .. } = ev {
                    first.get_or_insert(name);
                }
            })
            .unwrap();
            first.unwrap()
        };
        assert_eq!(sym_of("<doc><x/></doc>"), sym_of("<doc><y/></doc>"));
    }

    #[test]
    fn lookup_only_mode_never_grows_the_table() {
        let symbols = Arc::new(Symbols::new());
        let known = symbols.intern("item");
        let mut p = StreamingParser::with_symbols(Arc::clone(&symbols)).lookup_only();
        let mut events = Vec::new();
        p.feed_interned(
            r#"<root><item/><other key="v">text</other></root>"#,
            &mut |ev, _| events.push(format!("{ev:?}")),
        )
        .unwrap();
        p.finish_interned(&mut |_, _| {}).unwrap();
        assert_eq!(symbols.len(), 1, "document names must not intern");
        // The known name resolves to its real sym; unknown ones
        // collapse to UNKNOWN (and still match as start/end pairs).
        assert!(events.iter().any(|e| e.contains(&format!("{known:?}"))));
        assert!(events
            .iter()
            .any(|e| e.contains("UNKNOWN") || e.contains("4294967295")));
    }

    #[test]
    fn parser_reset_reuses_scratch_across_documents() {
        let mut p = StreamingParser::new();
        let mut names = Vec::new();
        p.feed_interned("<a><b/></a>", &mut |ev, _| {
            if let SymEvent::StartElement { name, .. } = ev {
                names.push(name);
            }
        })
        .unwrap();
        p.finish_interned(&mut |_, _| {}).unwrap();
        p.reset();
        p.feed_interned("<a><c/></a>", &mut |ev, _| {
            if let SymEvent::StartElement { name, .. } = ev {
                names.push(name);
            }
        })
        .unwrap();
        p.finish_interned(&mut |_, _| {}).unwrap();
        assert_eq!(names[0], names[2], "syms stable across reset");
        assert_eq!(p.symbols().len(), 3);
        // And a reset parser enforces completeness afresh.
        p.reset();
        p.feed_interned("<open>", &mut |_, _| {}).unwrap();
        assert!(p.finish_interned(&mut |_, _| {}).is_err());
    }

    #[test]
    fn lookup_only_mode_still_matches_end_tags_exactly() {
        // Two distinct unknown names share Sym::UNKNOWN, but tag
        // matching is by string: crossing them is still an error.
        let mut p = StreamingParser::new().lookup_only();
        let mut sink = |_: SymEvent<'_>, _: crate::span::Span| {};
        p.feed_interned("<aaa><bbb>", &mut sink).unwrap();
        assert!(p.feed_interned("</aaa>", &mut sink).is_err());

        // And duplicate unknown attribute names are still rejected.
        let mut p2 = StreamingParser::new().lookup_only();
        assert!(p2
            .feed_interned(r#"<t q="1" q="2"/>"#, &mut |_, _| {})
            .is_err());
        // Distinct unknown attribute names are not false duplicates.
        let mut p3 = StreamingParser::new().lookup_only();
        p3.feed_interned(r#"<t q="1" r="2"/>"#, &mut |_, _| {})
            .unwrap();
    }

    #[test]
    fn drive_reader_equals_batch_with_multibyte_splits() {
        let xml = "<a attr=\"v\">héllo • wörld<b/></a>";
        let expected = parse(xml).unwrap();
        let mut parser = StreamingParser::new();
        let symbols = Arc::clone(parser.symbols());
        let mut got = Vec::new();
        parser
            .drive_reader(std::io::Cursor::new(xml.as_bytes()), &mut |ev, _| {
                got.push(ev.to_owned(&symbols))
            })
            .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn drive_reader_reports_truncation_and_bad_utf8() {
        let mut p = StreamingParser::new();
        assert!(p
            .drive_reader(std::io::Cursor::new(b"<a><b>".as_ref()), &mut |_, _| {})
            .is_err());
        let mut p2 = StreamingParser::new();
        assert!(p2
            .drive_reader(
                std::io::Cursor::new(b"<a>\xFF</a>".as_ref()),
                &mut |_, _| {}
            )
            .is_err());
    }
}
