//! The XML grammar: the token state machine behind
//! [`StreamingParser`], the true streaming entry point. [`crate::parse`]
//! needs the whole document in memory; the streaming parser accepts
//! arbitrary byte-chunk boundaries and emits events as soon as they are
//! complete, so a filter can run over documents far larger than RAM —
//! the setting the paper's space bounds are about.
//!
//! Everything format-agnostic — input buffering and the in-place fast
//! path, UTF-8 carrying, name resolution, the two reader drivers —
//! is the [`Frontend`] chassis (see [`crate::source`]); this module
//! holds only what is XML: tag and text tokenizing, entity decoding,
//! the open-element stack, and the well-formedness rules.
//!
//! The inner byte scan is built on [`crate::scan`] — SWAR word-at-a-time
//! structural search for `<`, `>`, `&`, and quote delimiters — and text
//! spans containing no `&` are emitted as borrowed slices of the input
//! with no entity decoding and no copy.

use crate::escape::decode_entities_into;
use crate::parser::ParseError;
use crate::scan;
use crate::source::{error_at, Cursor, Frontend, Grammar, Names, WhitespaceText};
use crate::span::Span;
use crate::symbols::{AttrBuf, Sym, SymEvent};

/// The streaming XML tokenizer: [`XmlGrammar`] on the shared
/// [`Frontend`] chassis.
pub type StreamingParser = Frontend<XmlGrammar>;

/// XML token state. Whitespace-only text is dropped by default,
/// matching [`crate::parse`] (see [`Frontend::keep_whitespace`]).
#[derive(Debug, Clone, Default)]
pub struct XmlGrammar {
    /// Open elements: `(sym, name start)` where the second field is
    /// the byte offset of this element's name in
    /// [`XmlGrammar::name_arena`]. End tags are matched by *string*,
    /// which stays exact when unknown names share a sym.
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
    keep_whitespace: bool,
    /// Reused entity-decoded text buffer; `Text` events with entities
    /// borrow it (entity-free text borrows the input directly).
    text_scratch: String,
    /// Reused attribute slots; `StartElement` events borrow them.
    attrs: AttrBuf,
    /// Reused structural index: positions of `<` `>` `"` `'` `&` in the
    /// unconsumed input, rebuilt by one SWAR pass per drain.
    struct_idx: Vec<u32>,
}

impl WhitespaceText for XmlGrammar {
    fn keep_whitespace(&mut self) {
        self.keep_whitespace = true;
    }
}

impl Grammar for XmlGrammar {
    /// One SWAR pass builds the structural index; the token loop then
    /// walks delimiter *positions* instead of re-scanning bytes.
    fn drain<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        names: &mut Names,
        buf: &str,
        cur: &mut Cursor,
        at_eof: bool,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        // A byte-order mark may open the stream (XML 1.0 §4.3.3); it is
        // no part of the document, and spans stay source offsets.
        if cur.offset() == 0 && buf[cur.pos..].starts_with('\u{feff}') {
            cur.advance('\u{feff}'.len_utf8());
        }
        let mut idx = std::mem::take(&mut self.struct_idx);
        idx.clear();
        assert!(
            buf.len() <= u32::MAX as usize,
            "single buffered token exceeds 4 GiB"
        );
        // Pre-size to the worst typical density (~1 delimiter per 4
        // bytes) so a cold index reaches capacity in one reallocation
        // instead of a doubling cascade.
        idx.reserve((buf.len() - cur.pos) / 4);
        scan::positions_xml(buf.as_bytes(), cur.pos, &mut idx);
        let result = self.drain_indexed(names, buf, &idx, cur, at_eof, emit);
        self.struct_idx = idx;
        result
    }

    /// Verifies completeness and emits `EndDocument`.
    fn finish<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        buf: &str,
        cur: &mut Cursor,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        if !buf[cur.pos..].trim().is_empty() {
            return Err(cur.error("unexpected trailing content at end of input"));
        }
        if self.depth > 0 {
            return Err(cur.error(format!("unclosed element `{}`", self.top_name().2)));
        }
        if !self.started {
            return Err(cur.error("empty document"));
        }
        emit(SymEvent::EndDocument, Span::point(cur.offset() as u64));
        Ok(())
    }

    fn reset(&mut self) {
        self.depth = 0;
        self.name_arena.clear();
        self.started = false;
    }
}

impl XmlGrammar {
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

    fn drain_indexed<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        names: &mut Names,
        buf: &str,
        idx: &[u32],
        cur: &mut Cursor,
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
                if p >= cur.pos {
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
                Some(p) if p == cur.pos => {}
                Some(p) => {
                    self.take_text(buf, cur, p - cur.pos, last_amp, emit)?;
                    if cur.pos < p {
                        // The text directly before the tag ends in a
                        // held-back entity fragment ("&am…" with no
                        // `;`); a tag can never complete it.
                        return Err(cur.error("unterminated entity reference before tag"));
                    }
                    continue;
                }
                None => {
                    let len = buf.len() - cur.pos;
                    if at_eof && len > 0 {
                        self.take_text(buf, cur, len, last_amp, emit)?;
                    }
                    return Ok(());
                }
            }
            // A tag begins at the cursor; find its end, respecting the
            // multi-character terminators of comments/CDATA/PIs and
            // quoted attribute values (which may contain `>`).
            let Some((tag_len, k_next)) = tag_region(bytes, idx, k, cur)? else {
                return Ok(()); // incomplete: wait for more input
            };
            k = k_next;
            let tag = &buf[cur.pos..cur.pos + tag_len];
            let span = cur.advance(tag_len);
            self.handle_tag(names, tag, span, emit)?;
        }
    }

    fn take_text<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        buf: &str,
        cur: &mut Cursor,
        len: usize,
        last_amp: usize, // absolute position of the last `&`, or usize::MAX
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let text = &buf[cur.pos..cur.pos + len];
        // Entity-free text (the overwhelmingly common case) needs no
        // decoding and no hold-back: the raw slice is the payload.
        let (end, decoded) = if last_amp == usize::MAX {
            (len, false)
        } else {
            // Hold back a trailing fragment that may be a split entity
            // reference ("&am" + "p;").
            let amp = last_amp - cur.pos;
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
                return Err(cur.error(e.to_string()));
            }
            (end, true)
        };
        let span = cur.advance(end);
        let content: &str = if decoded {
            &self.text_scratch
        } else {
            &text[..end]
        };
        if self.keep_whitespace || !is_all_whitespace(content) {
            if self.depth == 0 {
                return Err(cur.error("text content outside the root element"));
            }
            emit(SymEvent::Text { content }, span);
        }
        Ok(())
    }

    // The tag handlers run after the cursor has passed the tag, so
    // their errors sit at `span.end`.
    fn handle_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        names: &mut Names,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        // One byte decides the tag kind; the `<!…`/`<?…` markup forms
        // take the cold path.
        match tag.as_bytes()[1] {
            b'!' | b'?' => self.handle_markup_tag(names, tag, span, emit),
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
                let err = |m: String| error_at(span.end as usize, m);
                if self.depth == 0 {
                    return Err(err(format!("`</{name}>` without matching start tag")));
                }
                let (open_sym, start, open_name) = self.top_name();
                if open_name != name {
                    return Err(err(format!(
                        "mismatched `</{name}>`; expected `</{open_name}>`"
                    )));
                }
                self.depth -= 1;
                self.name_arena.truncate(start);
                emit(SymEvent::EndElement { name: open_sym }, span);
                Ok(())
            }
            _ => self.handle_element_tag(names, tag, span, emit),
        }
    }

    /// `<!…>` / `<?…>` markup: comments, PIs, and DOCTYPE are skipped,
    /// CDATA becomes text, and any other `<!…` form falls through to
    /// the element path (an element named `!…`, as the batch parser
    /// sees it).
    fn handle_markup_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        names: &mut Names,
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
                return Err(error_at(
                    span.end as usize,
                    "CDATA outside the root element",
                ));
            }
            if !cdata.is_empty() {
                emit(SymEvent::Text { content: cdata }, span);
            }
            return Ok(());
        }
        self.handle_element_tag(names, tag, span, emit)
    }

    /// A start (or self-closing) tag: `<name attr="v"…>` / `<name…/>`.
    fn handle_element_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        names: &mut Names,
        tag: &str,
        span: Span,
        emit: &mut F,
    ) -> Result<(), ParseError> {
        let err = |m: &str| error_at(span.end as usize, m);
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
            return Err(err("empty tag name"));
        }
        if self.depth == 0 && self.started {
            return Err(err("multiple root elements"));
        }
        if ne < inner.len() {
            parse_attrs_into(&tag[1 + ne + 1..1 + inner.len()], names, &mut self.attrs)
                .map_err(|m| err(&m))?;
        } else {
            self.attrs.clear();
        }
        let sym = names.resolve(name);
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

/// Extent of the complete tag whose `<` sits at `idx[k]` (== the
/// cursor): `(byte length, index entry just past the tag)`, or
/// `None` if more input is needed. Pure index walk — no byte
/// re-scanning except the short prefix dispatch and the rare
/// DOCTYPE form.
fn tag_region(
    bytes: &[u8],
    idx: &[u32],
    k: usize,
    cur: &Cursor,
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
            b'<' => return Err(cur.error("`<` inside a tag")),
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
fn parse_attrs_into(s: &str, names: &mut Names, out: &mut AttrBuf) -> Result<(), String> {
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
        let sym = names.resolve(name);
        // In interning mode distinct names have distinct syms, so the
        // duplicate check is an integer scan and the name string need
        // not be copied at all. Only the lookup-only collapse (unknown
        // names sharing `Sym::UNKNOWN`) requires comparing by text.
        let value = if names.interning() {
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
    use crate::symbols::Symbols;
    use std::sync::Arc;

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
    fn batched_drive_equals_batch_with_multibyte_splits() {
        let xml = "<a attr=\"v\">héllo • wörld<b/></a>";
        let expected = parse(xml).unwrap();
        // Two reads, cut inside the 2-byte `é`.
        let (head, tail) = xml.as_bytes().split_at(xml.find('é').unwrap() + 1);
        let mut parser = StreamingParser::new();
        let symbols = Arc::clone(parser.symbols());
        let (mut got, mut scratch) = (Vec::new(), AttrBuf::new());
        parser
            .drive_batched(std::io::Read::chain(head, tail), &mut |batch| {
                batch.replay(&mut scratch, |ev, _| got.push(ev.to_owned(&symbols)))
            })
            .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn batched_drive_reports_truncation_and_bad_utf8() {
        let mut p = StreamingParser::new();
        assert!(p.drive_batched(b"<a><b>".as_ref(), &mut |_| {}).is_err());
        let mut p2 = StreamingParser::new();
        let err = p2
            .drive_batched(b"<a>\xFF</a>".as_ref(), &mut |_| {})
            .unwrap_err();
        assert!(
            err.to_string().contains("at byte 4: invalid UTF-8"),
            "{err}"
        );
    }
}
