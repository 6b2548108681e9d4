//! The lenient streaming HTML-soup tokenizer.
//!
//! [`HtmlParser`] mirrors `fx_xml::StreamingParser`'s shape — feed
//! string chunks at arbitrary boundaries, interned [`SymEvent`]s come
//! out, scratch buffers make the steady state allocation-free — but
//! where the XML parser *rejects* malformed input, this one follows
//! the recovery rules listed in the crate docs and never reports a
//! structural error. The only failures it can surface are I/O and
//! invalid UTF-8 from [`HtmlParser::drive_reader`].

use fx_xml::scan;
use fx_xml::{
    AttrBuf, Event, EventBatch, EventSource, ParseError, Span, Sym, SymCache, SymEvent, Symbols,
    Utf8Carry, BATCH_BYTES, BATCH_EVENTS,
};
use std::io::Read;
use std::sync::Arc;

use crate::entities::decode_html_entities_into;

/// True for the HTML void elements: their start tag is the whole
/// element, so the parser emits start+end immediately and ignores any
/// stray `</br>`-style end tag.
fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// How the element's content is tokenized once its start tag is seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RawKind {
    /// Verbatim to the matching end tag: `<script>`, `<style>`.
    Raw,
    /// Character references decode, tags do not: `<title>`, `<textarea>`.
    Escapable,
}

fn raw_kind(name: &str) -> Option<RawKind> {
    match name {
        "script" | "style" => Some(RawKind::Raw),
        "title" | "textarea" => Some(RawKind::Escapable),
        _ => None,
    }
}

/// True when a start tag named `incoming` implicitly closes an open
/// element named `open` sitting on top of the stack — the `<p>`/`<li>`
/// family of HTML end-tag-omission rules (applied repeatedly, so
/// `<td>` inside `<td><p>` closes both).
fn start_tag_closes(incoming: &str, open: &str) -> bool {
    match incoming {
        "li" => open == "li",
        "dt" | "dd" => matches!(open, "dt" | "dd"),
        "tr" => matches!(open, "tr" | "td" | "th"),
        "td" | "th" => matches!(open, "td" | "th"),
        "thead" | "tbody" | "tfoot" => {
            matches!(open, "thead" | "tbody" | "tfoot" | "tr" | "td" | "th")
        }
        "option" => open == "option",
        "optgroup" => matches!(open, "option" | "optgroup"),
        // Block-level start tags close an open paragraph.
        "address" | "article" | "aside" | "blockquote" | "details" | "div" | "dl" | "fieldset"
        | "figcaption" | "figure" | "footer" | "form" | "h1" | "h2" | "h3" | "h4" | "h5" | "h6"
        | "header" | "hr" | "main" | "menu" | "nav" | "ol" | "p" | "pre" | "section" | "table"
        | "ul" => open == "p",
        _ => false,
    }
}

/// A resumable, never-failing push parser for HTML soup. See the crate
/// docs for the exact recovery rules. Feed it string chunks; interned
/// events come out the moment they are complete, with cumulative byte
/// [`Span`]s. Memory is bounded by the largest single token (a tag, a
/// text run, or one raw-text element's content), never by document
/// size.
#[derive(Debug, Clone)]
pub struct HtmlParser {
    buf: String,
    /// Consumed prefix of `buf` (compacted once per feed).
    pos: usize,
    symbols: Arc<Symbols>,
    /// False in [`HtmlParser::lookup_only`] mode: document names
    /// resolve read-only and unknown ones collapse to [`Sym::UNKNOWN`].
    intern_names: bool,
    name_cache: SymCache,
    /// Open elements: `(sym, folded name)`, name strings pooled.
    stack: Vec<(Sym, String)>,
    depth: usize,
    started: bool,
    finished: bool,
    consumed: usize,
    keep_whitespace: bool,
    /// `Some` while inside a raw-text element (`<script>`, `<title>`, …).
    raw: Option<RawKind>,
    /// The folded name whose `</name` closes the current raw-text run.
    raw_closer: String,
    /// Reused copy of the tag being handled.
    tag_scratch: String,
    /// Reused case-folded tag-name buffer.
    name_scratch: String,
    /// Reused case-folded attribute-name buffer.
    attr_scratch: String,
    /// Reused entity-decoded text buffer; `Text` events borrow it.
    text_scratch: String,
    /// Reused attribute slots; `StartElement` events borrow them.
    attrs: AttrBuf,
    /// Incomplete UTF-8 scalar split across byte-chunk feeds
    /// ([`HtmlParser::feed_interned_bytes`]).
    utf8_carry: Utf8Carry,
    /// Reused read buffer for [`HtmlParser::drive_reader`].
    io_chunk: Vec<u8>,
    /// Reused event batch for [`HtmlParser::drive_batched`].
    ev_batch: EventBatch,
}

impl Default for HtmlParser {
    fn default() -> Self {
        HtmlParser::new()
    }
}

impl HtmlParser {
    /// A parser with a fresh private [`Symbols`] table, dropping
    /// whitespace-only text (matching `fx_xml::parse`).
    pub fn new() -> HtmlParser {
        HtmlParser::with_symbols(Arc::new(Symbols::new()))
    }

    /// A parser interning names into `symbols` — the table downstream
    /// compiled queries resolve their node tests in.
    pub fn with_symbols(symbols: Arc<Symbols>) -> HtmlParser {
        HtmlParser {
            buf: String::new(),
            pos: 0,
            symbols,
            intern_names: true,
            name_cache: SymCache::new(),
            stack: Vec::new(),
            depth: 0,
            started: false,
            finished: false,
            consumed: 0,
            keep_whitespace: false,
            raw: None,
            raw_closer: String::new(),
            tag_scratch: String::new(),
            name_scratch: String::new(),
            attr_scratch: String::new(),
            text_scratch: String::new(),
            attrs: AttrBuf::new(),
            utf8_carry: Utf8Carry::new(),
            io_chunk: Vec::new(),
            ev_batch: EventBatch::new(),
        }
    }

    /// Keeps whitespace-only text nodes.
    pub fn keep_whitespace(mut self) -> HtmlParser {
        self.keep_whitespace = true;
        self
    }

    /// Switches to *lookup-only* name resolution: document names
    /// resolve against the shared table read-only, unknown ones
    /// collapse to [`Sym::UNKNOWN`], and the table stays bounded by the
    /// compiled query vocabulary on unbounded inputs — exactly like
    /// `fx_xml::StreamingParser::lookup_only`.
    pub fn lookup_only(mut self) -> HtmlParser {
        self.intern_names = false;
        self
    }

    /// The symbol table this parser resolves names against.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Resets per-document state, keeping the table handle, the name
    /// memo, and every scratch buffer's capacity warm.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.depth = 0;
        self.started = false;
        self.finished = false;
        self.consumed = 0;
        self.raw = None;
        self.utf8_carry.clear();
    }

    /// Drops memoized name verdicts (see
    /// `fx_xml::StreamingParser::invalidate_name_memo`).
    pub fn invalidate_name_memo(&mut self) {
        self.name_cache.clear();
    }

    fn resolve_name(cache: &mut SymCache, symbols: &Symbols, intern: bool, name: &str) -> Sym {
        cache.lookup_or_intern(symbols, name, intern)
    }

    /// Pushes an open element, reusing a retired slot's name capacity.
    fn stack_push(&mut self, sym: Sym, name: &str) {
        if self.depth == self.stack.len() {
            self.stack.push((sym, name.to_string()));
        } else {
            let slot = &mut self.stack[self.depth];
            slot.0 = sym;
            slot.1.clear();
            slot.1.push_str(name);
        }
        self.depth += 1;
    }

    /// Feeds a chunk, emitting every event that becomes complete, in
    /// interned zero-copy form. Structural oddities recover silently;
    /// the `Result` exists for [`EventSource`] parity and is always
    /// `Ok` here.
    pub fn feed_interned<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        chunk: &str,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.compact();
        self.buf.push_str(chunk);
        self.drain(false, emit);
        Ok(())
    }

    /// [`HtmlParser::feed_interned`] on raw bytes: validates UTF-8 once
    /// per chunk and carries a scalar split across chunk boundaries, so
    /// any read boundary — including mid-multibyte-character — is safe.
    /// The only possible error is invalid UTF-8.
    pub fn feed_interned_bytes<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        chunk: &[u8],
        emit: &mut F,
    ) -> Result<(), ParseError> {
        self.compact();
        let HtmlParser {
            buf, utf8_carry, ..
        } = self;
        utf8_carry.feed(chunk, &mut |text| {
            buf.push_str(text);
            Ok(())
        })?;
        self.drain(false, emit);
        Ok(())
    }

    /// Signals end of input: emits trailing text, closes every open
    /// element (implied end tags at EOF), and frames the stream with
    /// `StartDocument`/`EndDocument` even when the input held no
    /// elements at all.
    pub fn finish_interned<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        if self.finished {
            return Err(ParseError {
                message: "finish called twice".to_string(),
                line: 0,
                column: self.consumed + 1,
            });
        }
        self.utf8_carry.finish()?;
        self.drain(true, emit);
        if !self.started {
            self.started = true;
            emit(SymEvent::StartDocument, Span::point(0));
        }
        while self.depth > 0 {
            let sym = self.stack[self.depth - 1].0;
            self.depth -= 1;
            emit(
                SymEvent::EndElement { name: sym },
                Span::point(self.consumed as u64),
            );
        }
        self.finished = true;
        emit(SymEvent::EndDocument, Span::point(self.consumed as u64));
        Ok(())
    }

    /// Streams a whole document from `reader` through the interned
    /// surface: fixed-size chunks, split UTF-8 scalars carried across
    /// boundaries. The only possible errors are I/O and invalid UTF-8.
    pub fn drive_reader<R: Read, F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        mut reader: R,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let mut chunk = std::mem::take(&mut self.io_chunk);
        let result = fx_xml::drive_byte_chunks(&mut reader, &mut chunk, &mut |bytes| {
            self.feed_interned_bytes(bytes, emit)
        })
        .and_then(|()| self.finish_interned(emit));
        self.io_chunk = chunk;
        result
    }

    /// Streams a whole document from `reader` as recycled
    /// [`EventBatch`]es — the soup frontend's native
    /// [`EventSource::drive_batched`]: batches cut on
    /// [`BATCH_EVENTS`] events or [`BATCH_BYTES`] payload bytes, the
    /// batch borrow valid only for the `consume` call.
    pub fn drive_batched<R: Read>(
        &mut self,
        mut reader: R,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        let mut batch = std::mem::take(&mut self.ev_batch);
        batch.clear();
        let mut chunk = std::mem::take(&mut self.io_chunk);
        let result = fx_xml::drive_byte_chunks(&mut reader, &mut chunk, &mut |bytes| {
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

    fn pending(&self) -> &str {
        &self.buf[self.pos..]
    }

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

    fn drain<F: FnMut(SymEvent<'_>, Span) + ?Sized>(&mut self, at_eof: bool, emit: &mut F) {
        loop {
            if self.raw.is_some() {
                if !self.drain_raw(at_eof, emit) {
                    return; // waiting for more input
                }
                continue;
            }
            // Text up to the next real tag opener. A `<` not followed
            // by an ASCII letter, `!`, `/`, or `?` is literal text.
            let b = self.pending().as_bytes();
            let mut i = 0;
            let tag_at = loop {
                match scan::memchr(b'<', &b[i..]) {
                    None => break None,
                    Some(j) => {
                        let at = i + j;
                        match b.get(at + 1) {
                            None if at_eof => break None, // trailing literal `<`
                            // Undecidable `<` at the buffer end: keep the
                            // whole text run buffered (never split it).
                            None => return,
                            Some(&c)
                                if c.is_ascii_alphabetic() || matches!(c, b'!' | b'/' | b'?') =>
                            {
                                break Some(at)
                            }
                            Some(_) => i = at + 1, // literal `<`
                        }
                    }
                }
            };
            match tag_at {
                None => {
                    // All pending input is text; it is complete only at
                    // EOF (text nodes are never split mid-run).
                    if at_eof && !self.pending().is_empty() {
                        let len = self.pending().len();
                        self.take_text(len, true, emit);
                    }
                    return;
                }
                Some(at) => {
                    if at > 0 {
                        self.take_text(at, true, emit);
                    }
                }
            }
            // A tag begins at the cursor.
            let Some(tag_len) = self.tag_length() else {
                if at_eof {
                    // EOF inside a tag: HTML drops the partial token.
                    let len = self.pending().len();
                    self.pos += len;
                    self.consumed += len;
                }
                return;
            };
            let mut tag = std::mem::take(&mut self.tag_scratch);
            tag.clear();
            tag.push_str(&self.buf[self.pos..self.pos + tag_len]);
            self.pos += tag_len;
            self.consumed += tag_len;
            let span = Span::new((self.consumed - tag_len) as u64, self.consumed as u64);
            self.handle_tag(&tag, span, emit);
            self.tag_scratch = tag;
        }
    }

    /// Emits the next `len` bytes of pending input as one text node
    /// (entity-decoded when `decode`), dropping it when whitespace-only
    /// (unless [`HtmlParser::keep_whitespace`]) or outside any element.
    fn take_text<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        len: usize,
        decode: bool,
        emit: &mut F,
    ) {
        self.text_scratch.clear();
        let raw = &self.buf[self.pos..self.pos + len];
        if decode {
            decode_html_entities_into(raw, &mut self.text_scratch);
        } else {
            self.text_scratch.push_str(raw);
        }
        self.pos += len;
        self.consumed += len;
        let span = Span::new((self.consumed - len) as u64, self.consumed as u64);
        if self.depth == 0 {
            return; // top-level text outside any element: dropped
        }
        if self.keep_whitespace || !self.text_scratch.chars().all(char::is_whitespace) {
            emit(
                SymEvent::Text {
                    content: &self.text_scratch,
                },
                span,
            );
        }
    }

    /// Length of the complete tag at the cursor, or `None` while more
    /// input could still complete it.
    fn tag_length(&self) -> Option<usize> {
        let b = self.pending();
        debug_assert!(b.starts_with('<'));
        if b.len() < 4 && "<!--".starts_with(b) {
            return None; // could still become a comment opener
        }
        if let Some(rest) = b.strip_prefix("<!--") {
            return rest.find("-->").map(|i| 4 + i + 3);
        }
        if b.starts_with("<!") || b.starts_with("<?") || b.starts_with("</") {
            // Doctype, bogus comment, or end tag: plain scan to `>`.
            return b.find('>').map(|i| i + 1);
        }
        // A start tag: `>` ends it, except inside a quoted attribute
        // value (a quote counts as opening one only right after `=`,
        // matching the HTML attribute-value states).
        let mut quote: Option<u8> = None;
        let mut after_eq = false;
        for (i, c) in b.bytes().enumerate().skip(1) {
            match quote {
                Some(q) => {
                    if c == q {
                        quote = None;
                    }
                }
                None => match c {
                    b'>' => return Some(i + 1),
                    b'"' | b'\'' if after_eq => quote = Some(c),
                    b'=' => after_eq = true,
                    c if c.is_ascii_whitespace() => {}
                    _ => after_eq = false,
                },
            }
        }
        None
    }

    fn handle_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) {
        if tag.starts_with("<!") || tag.starts_with("<?") {
            return; // comments, doctype, processing-instruction soup
        }
        if let Some(rest) = tag.strip_prefix("</") {
            self.handle_end_tag(rest, span, emit);
        } else {
            self.handle_start_tag(tag, span, emit);
        }
    }

    fn handle_end_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        rest: &str,
        span: Span,
        emit: &mut F,
    ) {
        self.name_scratch.clear();
        for c in rest.chars() {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == ':' {
                self.name_scratch.push(c.to_ascii_lowercase());
            } else {
                break;
            }
        }
        if self.name_scratch.is_empty() || is_void(&self.name_scratch) {
            return; // `</>`, `</ x>`, `</br>`: dropped
        }
        // Close up to the nearest matching open element; a stray end
        // tag with no match is dropped.
        let Some(target) = (0..self.depth)
            .rev()
            .find(|&i| self.stack[i].1 == self.name_scratch)
        else {
            return;
        };
        while self.depth > target + 1 {
            let sym = self.stack[self.depth - 1].0;
            self.depth -= 1;
            emit(SymEvent::EndElement { name: sym }, Span::point(span.start));
        }
        let sym = self.stack[target].0;
        self.depth = target;
        emit(SymEvent::EndElement { name: sym }, span);
    }

    fn handle_start_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) {
        // `<name attrs>` — a trailing `/` is ignored on non-void
        // elements, as in HTML (`<div/>` opens a div).
        let inner = tag
            .trim_start_matches('<')
            .trim_end_matches('>')
            .trim_end_matches('/');
        self.name_scratch.clear();
        let mut name_end = inner.len();
        for (i, c) in inner.char_indices() {
            if c.is_ascii_whitespace() || c == '/' {
                name_end = i;
                break;
            }
            self.name_scratch.push(c.to_ascii_lowercase());
        }
        if self.name_scratch.is_empty() {
            return;
        }
        // Implied end tags: `<li>` closes `<li>`, blocks close `<p>`, …
        loop {
            if self.depth == 0 {
                break;
            }
            let top = &self.stack[self.depth - 1].1;
            if !start_tag_closes(&self.name_scratch, top) {
                break;
            }
            let sym = self.stack[self.depth - 1].0;
            self.depth -= 1;
            emit(SymEvent::EndElement { name: sym }, Span::point(span.start));
        }
        let mut fold = std::mem::take(&mut self.attr_scratch);
        parse_attrs_lenient(
            &inner[name_end..],
            &self.symbols,
            &mut self.name_cache,
            self.intern_names,
            &mut fold,
            &mut self.attrs,
        );
        self.attr_scratch = fold;
        let name = std::mem::take(&mut self.name_scratch);
        let sym = Self::resolve_name(
            &mut self.name_cache,
            &self.symbols,
            self.intern_names,
            &name,
        );
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
        if is_void(&name) {
            // The start tag is the whole element; both events share it.
            emit(SymEvent::EndElement { name: sym }, span);
        } else {
            self.stack_push(sym, &name);
            if let Some(kind) = raw_kind(&name) {
                self.raw = Some(kind);
                self.raw_closer.clear();
                self.raw_closer.push_str(&name);
            }
        }
        self.name_scratch = name;
    }

    /// Drains raw-text content (`<script>`, `<title>`, …): everything
    /// to the matching case-insensitive `</name` is one text node.
    /// Returns false when waiting for more input.
    fn drain_raw<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        at_eof: bool,
        emit: &mut F,
    ) -> bool {
        let kind = self.raw.expect("drain_raw called in raw mode");
        let decode = kind == RawKind::Escapable;
        let b = self.pending().as_bytes();
        // The closer pattern: `<`, `/`, then the (folded) element name.
        let closer_len = 2 + self.raw_closer.len();
        let mut i = 0;
        let closer = loop {
            match scan::memchr(b'<', &b[i..]) {
                None => break None,
                Some(j) => {
                    let at = i + j;
                    let avail = &b[at..];
                    // How much of the pattern the available bytes match,
                    // case-insensitively.
                    let mut matched = 0;
                    for (k, &a) in avail.iter().enumerate().take(closer_len) {
                        let expect = match k {
                            0 => b'<',
                            1 => b'/',
                            _ => self.raw_closer.as_bytes()[k - 2],
                        };
                        if a.to_ascii_lowercase() != expect {
                            break;
                        }
                        matched = k + 1;
                    }
                    if matched < avail.len().min(closer_len) {
                        i = at + 1; // definite mismatch: still text
                        continue;
                    }
                    if avail.len() <= closer_len {
                        // A potential closer runs off the buffer end: at
                        // EOF it is plain text, otherwise wait (the text
                        // run stays buffered so it is never split).
                        if at_eof {
                            break None;
                        }
                        return false;
                    }
                    // Full `</name` — the next byte decides.
                    match avail[closer_len] {
                        b'>' | b'/' => break Some(at),
                        c if c.is_ascii_whitespace() => break Some(at),
                        _ => i = at + 1, // e.g. `</scripts`: still text
                    }
                }
            }
        };
        match closer {
            None => {
                if at_eof {
                    // EOF inside raw text: the content is text and
                    // `finish_interned` emits the implied end tags.
                    let len = self.pending().len();
                    if len > 0 {
                        self.take_text(len, decode, emit);
                    }
                    self.raw = None;
                    return true;
                }
                false
            }
            Some(at) => {
                // Need the closer's `>` to consume the end tag.
                let Some(gt) = scan::memchr(b'>', &b[at + closer_len..]) else {
                    if at_eof {
                        // Partial end tag at EOF: drop it.
                        if at > 0 {
                            self.take_text(at, decode, emit);
                        }
                        let rest = self.pending().len() - at;
                        self.pos += rest;
                        self.consumed += rest;
                        self.raw = None;
                        return true;
                    }
                    return false;
                };
                if at > 0 {
                    self.take_text(at, decode, emit);
                }
                let tag_len = closer_len + gt + 1;
                self.pos += tag_len;
                self.consumed += tag_len;
                let span = Span::new((self.consumed - tag_len) as u64, self.consumed as u64);
                let sym = self.stack[self.depth - 1].0;
                self.depth -= 1;
                emit(SymEvent::EndElement { name: sym }, span);
                self.raw = None;
                true
            }
        }
    }
}

/// Lenient attribute parsing: names case-fold, values may be
/// double-quoted, single-quoted, unquoted, or absent (empty string),
/// duplicates keep the first occurrence, character references decode
/// leniently. Allocation-free in steady state.
fn parse_attrs_lenient(
    s: &str,
    symbols: &Symbols,
    cache: &mut SymCache,
    intern: bool,
    fold: &mut String,
    out: &mut AttrBuf,
) {
    out.clear();
    let mut rest = s.trim_start_matches(|c: char| c.is_ascii_whitespace() || c == '/');
    while !rest.is_empty() {
        // Attribute name: up to whitespace, `=`, `/`, or end.
        fold.clear();
        let mut name_end = rest.len();
        for (i, c) in rest.char_indices() {
            if c.is_ascii_whitespace() || c == '=' || c == '/' {
                name_end = i;
                break;
            }
            fold.push(c.to_ascii_lowercase());
        }
        rest = rest[name_end..].trim_start();
        let mut value: Option<&str> = None;
        if let Some(after_eq) = rest.strip_prefix('=') {
            let after_eq = after_eq.trim_start();
            let (raw, next) = match after_eq.as_bytes().first() {
                Some(&q @ (b'"' | b'\'')) => match after_eq[1..].find(q as char) {
                    Some(close) => (&after_eq[1..1 + close], &after_eq[close + 2..]),
                    None => (&after_eq[1..], ""), // unterminated: rest of tag
                },
                _ => {
                    let end = after_eq
                        .find(|c: char| c.is_ascii_whitespace())
                        .unwrap_or(after_eq.len());
                    (&after_eq[..end], &after_eq[end..])
                }
            };
            value = Some(raw);
            rest = next;
        }
        rest = rest.trim_start_matches(|c: char| c.is_ascii_whitespace() || c == '/');
        if fold.is_empty() {
            continue; // stray `=` or quote junk: skip
        }
        if out.has_name_str(fold) {
            continue; // duplicate attribute: first wins
        }
        let sym = cache.lookup_or_intern(symbols, fold, intern);
        let slot = out.push_named(sym, fold);
        if let Some(raw) = value {
            decode_html_entities_into(raw, slot);
        }
    }
}

impl EventSource for HtmlParser {
    fn symbols(&self) -> &Arc<Symbols> {
        HtmlParser::symbols(self)
    }

    fn reset(&mut self) {
        HtmlParser::reset(self);
    }

    fn invalidate_name_memo(&mut self) {
        HtmlParser::invalidate_name_memo(self);
    }

    fn drive_batched(
        &mut self,
        reader: &mut dyn Read,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError> {
        HtmlParser::drive_batched(self, reader, consume)
    }
}

/// Parses a whole HTML string into owned events — the convenience form
/// for tests and DOM building. Never fails: every input produces a
/// `StartDocument … EndDocument` framed stream under the crate's
/// recovery rules.
pub fn parse_html(html: &str) -> Vec<Event> {
    parse_html_chunked(html, html.len().max(1))
}

/// [`parse_html`], feeding `html` in `chunk`-byte steps (cut at
/// arbitrary bytes — the parser carries split scalars).
fn parse_html_chunked(html: &str, chunk: usize) -> Vec<Event> {
    let mut parser = HtmlParser::new();
    let symbols = Arc::clone(parser.symbols());
    let mut events = Vec::new();
    let mut emit = |ev: SymEvent<'_>, _: Span| events.push(ev.to_owned(&symbols));
    for piece in html.as_bytes().chunks(chunk) {
        parser
            .feed_interned_bytes(piece, &mut emit)
            .expect("a `&str` is valid UTF-8");
    }
    parser
        .finish_interned(&mut emit)
        .expect("html finish never fails on first call");
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xml::Attribute;

    fn ev_start(name: &str) -> Event {
        Event::start(name)
    }

    #[test]
    fn plain_tree_round_trips() {
        assert_eq!(
            parse_html("<div><span>hi</span></div>"),
            vec![
                Event::StartDocument,
                ev_start("div"),
                ev_start("span"),
                Event::text("hi"),
                Event::end("span"),
                Event::end("div"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn names_case_fold() {
        assert_eq!(
            parse_html("<DIV CLASS=\"x\">t</div>"),
            vec![
                Event::StartDocument,
                Event::start_with_attrs("div", vec![Attribute::new("class", "x")]),
                Event::text("t"),
                Event::end("div"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn void_elements_self_close() {
        assert_eq!(
            parse_html("<div>a<br>b<img src=x></div>"),
            vec![
                Event::StartDocument,
                ev_start("div"),
                Event::text("a"),
                ev_start("br"),
                Event::end("br"),
                Event::text("b"),
                Event::start_with_attrs("img", vec![Attribute::new("src", "x")]),
                Event::end("img"),
                Event::end("div"),
                Event::EndDocument,
            ]
        );
        // A stray `</br>` is dropped rather than unbalancing the tree.
        assert_eq!(
            parse_html("<div><br></br></div>"),
            parse_html("<div><br></div>")
        );
    }

    #[test]
    fn implied_end_tags() {
        // <li> closes <li>; the parent's end tag closes the last one.
        assert_eq!(
            parse_html("<ul><li>a<li>b</ul>"),
            parse_html("<ul><li>a</li><li>b</li></ul>")
        );
        // A block start closes an open <p>.
        assert_eq!(
            parse_html("<body><p>x<div>y</div></body>"),
            parse_html("<body><p>x</p><div>y</div></body>")
        );
        // Table soup.
        assert_eq!(
            parse_html("<table><tr><td>1<td>2<tr><td>3</table>"),
            parse_html("<table><tr><td>1</td><td>2</td></tr><tr><td>3</td></tr></table>")
        );
    }

    #[test]
    fn eof_closes_open_elements() {
        assert_eq!(
            parse_html("<div><p>tail"),
            vec![
                Event::StartDocument,
                ev_start("div"),
                ev_start("p"),
                Event::text("tail"),
                Event::end("p"),
                Event::end("div"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn attribute_quirks() {
        assert_eq!(
            parse_html("<a href=/x download data-n='7' href=dup>y</a>"),
            vec![
                Event::StartDocument,
                Event::start_with_attrs(
                    "a",
                    vec![
                        Attribute::new("href", "/x"),
                        Attribute::new("download", ""),
                        Attribute::new("data-n", "7"),
                    ]
                ),
                Event::text("y"),
                Event::end("a"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn stray_markup_recovers() {
        // Literal `<` in text, unknown end tag, bogus comment.
        assert_eq!(
            parse_html("<p>1 < 2 &amp; 3 </q> <!-- c --> ok</p>"),
            vec![
                Event::StartDocument,
                ev_start("p"),
                Event::text("1 < 2 & 3 "),
                Event::text(" ok"),
                Event::end("p"),
                Event::EndDocument,
            ]
        );
        // Unknown entity passes through.
        assert_eq!(
            parse_html("<p>&bogus; &amp;</p>"),
            vec![
                Event::StartDocument,
                ev_start("p"),
                Event::text("&bogus; &"),
                Event::end("p"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn raw_text_elements() {
        assert_eq!(
            parse_html("<div><script>if (a<b && c>d) x();</script></div>"),
            vec![
                Event::StartDocument,
                ev_start("div"),
                ev_start("script"),
                Event::text("if (a<b && c>d) x();"),
                Event::end("script"),
                Event::end("div"),
                Event::EndDocument,
            ]
        );
        // Escapable raw text decodes entities but not tags.
        assert_eq!(
            parse_html("<title>a &amp; <b></title>"),
            vec![
                Event::StartDocument,
                ev_start("title"),
                Event::text("a & <b>"),
                Event::end("title"),
                Event::EndDocument,
            ]
        );
        // The closer is case-insensitive.
        assert_eq!(
            parse_html("<style>p{}</STYLE>"),
            vec![
                Event::StartDocument,
                ev_start("style"),
                Event::text("p{}"),
                Event::end("style"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn doctype_comments_and_top_level_text_drop() {
        assert_eq!(
            parse_html("<!DOCTYPE html><!-- x -->stray<div>a</div>"),
            vec![
                Event::StartDocument,
                ev_start("div"),
                Event::text("a"),
                Event::end("div"),
                Event::EndDocument,
            ]
        );
    }

    #[test]
    fn trailing_slash_is_ignored_on_non_void() {
        assert_eq!(parse_html("<div/>x"), parse_html("<div>x"));
    }

    #[test]
    fn empty_input_still_frames_the_stream() {
        assert_eq!(
            parse_html(""),
            vec![Event::StartDocument, Event::EndDocument]
        );
    }

    #[test]
    fn chunked_parsing_matches_batch() {
        let docs = [
            "<div><span>hi</span> <br> tail</div>",
            "<ul><li>one<li>two &amp; three</ul>",
            "<table><tr><td>a<td>b</table>",
            "<div><script>a<b</script>ok</div>",
            "<title>x &lt; y</title>",
            "<p>1 < 2</p>",
            "<a href='q'>z</a>",
        ];
        for doc in docs {
            let batch = parse_html(doc);
            for chunk_size in 1..=doc.len().min(7) {
                assert_eq!(
                    parse_html_chunked(doc, chunk_size),
                    batch,
                    "chunk size {chunk_size} on {doc}"
                );
            }
        }
    }

    #[test]
    fn spans_are_cumulative_source_ranges() {
        let html = "<div>abc</div>";
        let mut parser = HtmlParser::new();
        let mut spans = Vec::new();
        parser
            .feed_interned(html, &mut |_, s| spans.push(s))
            .unwrap();
        parser.finish_interned(&mut |_, s| spans.push(s)).unwrap();
        // StartDocument, <div>, text, </div>, EndDocument.
        assert_eq!(spans[1], Span::new(0, 5));
        assert_eq!(spans[2], Span::new(5, 8));
        assert_eq!(spans[3], Span::new(8, 14));
    }

    #[test]
    fn lookup_only_bounds_the_table() {
        let symbols = Arc::new(Symbols::new());
        symbols.intern("div");
        let before = symbols.len();
        let mut parser = HtmlParser::with_symbols(Arc::clone(&symbols)).lookup_only();
        let mut saw_unknown = false;
        parser
            .feed_interned("<div><mystery>x</mystery></div>", &mut |ev, _| {
                if let SymEvent::StartElement { name, .. } = ev {
                    saw_unknown |= name == Sym::UNKNOWN;
                }
            })
            .unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        assert!(saw_unknown);
        assert_eq!(symbols.len(), before, "lookup-only must not grow the table");
    }

    #[test]
    fn reset_allows_reuse() {
        let mut parser = HtmlParser::new();
        let symbols = Arc::clone(parser.symbols());
        parser.feed_interned("<a>x</a>", &mut |_, _| {}).unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        parser.reset();
        let mut events = Vec::new();
        let mut emit = |ev: SymEvent<'_>, _: Span| events.push(ev.to_owned(&symbols));
        parser.feed_interned("<b>y</b>", &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
        assert_eq!(events, parse_html("<b>y</b>"));
    }
}
