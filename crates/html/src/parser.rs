//! The lenient HTML-soup grammar.
//!
//! [`HtmlParser`] is `fx_xml::StreamingParser`'s sibling on the same
//! [`Frontend`] chassis — feed chunks at arbitrary boundaries, interned
//! [`SymEvent`]s come out, scratch buffers make the steady state
//! allocation-free — but where the XML grammar *rejects* malformed
//! input, this one follows the recovery rules listed in the crate docs
//! and never reports a structural error.

use fx_xml::scan;
use fx_xml::{
    AttrBuf, Cursor, Event, EventSink, Frontend, Grammar, Names, ParseError, Span, Sym, SymEvent,
    WhitespaceText,
};
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

/// The lenient streaming HTML-soup tokenizer: [`HtmlGrammar`] on the
/// shared [`Frontend`] chassis. See the crate docs for the exact
/// recovery rules. Feed it chunks; interned events come out the moment
/// they are complete, with cumulative byte [`Span`]s. Memory is bounded
/// by the largest single token (a tag, a text run, or one raw-text
/// element's content), never by document size. It never reports a
/// structural error: the only failure a feed can surface is invalid
/// UTF-8 (and the reader drivers, a read error).
pub type HtmlParser = Frontend<HtmlGrammar>;

/// HTML-soup token state. Whitespace-only text is dropped by default,
/// matching `fx_xml::parse` (see [`Frontend::keep_whitespace`]).
#[derive(Debug, Clone, Default)]
pub struct HtmlGrammar {
    /// Open elements: `(sym, folded name)`, name strings pooled.
    stack: Vec<(Sym, String)>,
    depth: usize,
    started: bool,
    keep_whitespace: bool,
    /// `Some` while inside a raw-text element (`<script>`, `<title>`, …).
    raw: Option<RawKind>,
    /// The folded name whose `</name` closes the current raw-text run.
    raw_closer: String,
    /// Reused case-folded tag-name buffer.
    name_scratch: String,
    /// Reused case-folded attribute-name buffer.
    attr_scratch: String,
    /// Reused entity-decoded text buffer; decoded `Text` events borrow it.
    text_scratch: String,
    /// Reused attribute slots; `StartElement` events borrow them.
    attrs: AttrBuf,
}

impl WhitespaceText for HtmlGrammar {
    fn keep_whitespace(&mut self) {
        self.keep_whitespace = true;
    }
}

impl Grammar for HtmlGrammar {
    /// Structural oddities recover silently; the `Result` exists for
    /// [`Grammar`] parity and is always `Ok` here.
    fn drain<S: EventSink + ?Sized>(
        &mut self,
        names: &mut Names,
        input: &str,
        cur: &mut Cursor,
        at_eof: bool,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        let emit = &mut |ev: SymEvent<'_>, span: Span| sink.event(ev, span);
        loop {
            if self.raw.is_some() {
                if !self.drain_raw(input, cur, at_eof, emit) {
                    return Ok(()); // waiting for more input
                }
                continue;
            }
            // Text up to the next real tag opener. A `<` not followed
            // by an ASCII letter, `!`, `/`, or `?` is literal text.
            let b = &input.as_bytes()[cur.pos..];
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
                            None => return Ok(()),
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
                    if at_eof && !b.is_empty() {
                        self.take_text(input, cur, b.len(), true, emit);
                    }
                    return Ok(());
                }
                Some(at) => {
                    if at > 0 {
                        self.take_text(input, cur, at, true, emit);
                    }
                }
            }
            // A tag begins at the cursor.
            let Some(tag_len) = tag_length(&input[cur.pos..]) else {
                if at_eof {
                    // EOF inside a tag: HTML drops the partial token.
                    cur.advance(input.len() - cur.pos);
                }
                return Ok(());
            };
            let tag = &input[cur.pos..cur.pos + tag_len];
            let span = cur.advance(tag_len);
            self.handle_tag(names, tag, span, emit);
        }
    }

    /// Closes every open element (implied end tags at EOF) and frames
    /// the stream with `StartDocument`/`EndDocument` even when the
    /// input held no elements at all.
    fn finish<S: EventSink + ?Sized>(
        &mut self,
        _input: &str,
        cur: &mut Cursor,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        let emit = &mut |ev: SymEvent<'_>, span: Span| sink.event(ev, span);
        if !self.started {
            self.started = true;
            emit(SymEvent::StartDocument, Span::point(0));
        }
        let end = Span::point(cur.offset() as u64);
        while self.depth > 0 {
            let sym = self.stack[self.depth - 1].0;
            self.depth -= 1;
            emit(SymEvent::EndElement { name: sym }, end);
        }
        emit(SymEvent::EndDocument, end);
        Ok(())
    }

    fn reset(&mut self) {
        self.depth = 0;
        self.started = false;
        self.raw = None;
    }
}

impl HtmlGrammar {
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

    /// Emits the next `len` bytes of input as one text node
    /// (entity-decoded when `decode`), dropping it when whitespace-only
    /// (unless [`Frontend::keep_whitespace`]) or outside any element.
    fn take_text<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        input: &str,
        cur: &mut Cursor,
        len: usize,
        decode: bool,
        emit: &mut F,
    ) {
        let raw = &input[cur.pos..cur.pos + len];
        let span = cur.advance(len);
        if self.depth == 0 {
            return; // top-level text outside any element: dropped
        }
        let content = if decode {
            self.text_scratch.clear();
            decode_html_entities_into(raw, &mut self.text_scratch);
            self.text_scratch.as_str()
        } else {
            raw
        };
        if self.keep_whitespace || !content.chars().all(char::is_whitespace) {
            emit(SymEvent::Text { content }, span);
        }
    }

    fn handle_tag<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        names: &mut Names,
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
            self.handle_start_tag(names, tag, span, emit);
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
        names: &mut Names,
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
        parse_attrs_lenient(
            &inner[name_end..],
            names,
            &mut self.attr_scratch,
            &mut self.attrs,
        );
        let name = std::mem::take(&mut self.name_scratch);
        let sym = names.resolve(&name);
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
        input: &str,
        cur: &mut Cursor,
        at_eof: bool,
        emit: &mut F,
    ) -> bool {
        let kind = self.raw.expect("drain_raw called in raw mode");
        let decode = kind == RawKind::Escapable;
        let b = &input.as_bytes()[cur.pos..];
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
                    // `finish` emits the implied end tags.
                    if !b.is_empty() {
                        self.take_text(input, cur, b.len(), decode, emit);
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
                            self.take_text(input, cur, at, decode, emit);
                        }
                        cur.advance(b.len() - at);
                        self.raw = None;
                        return true;
                    }
                    return false;
                };
                if at > 0 {
                    self.take_text(input, cur, at, decode, emit);
                }
                let span = cur.advance(closer_len + gt + 1);
                let sym = self.stack[self.depth - 1].0;
                self.depth -= 1;
                emit(SymEvent::EndElement { name: sym }, span);
                self.raw = None;
                true
            }
        }
    }
}

/// Length of the complete tag at the start of `b`, or `None` while
/// more input could still complete it.
fn tag_length(b: &str) -> Option<usize> {
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
                    after_eq = false;
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

/// Lenient attribute parsing: names case-fold, values may be
/// double-quoted, single-quoted, unquoted, or absent (empty string),
/// duplicates keep the first occurrence, character references decode
/// leniently. Allocation-free in steady state.
fn parse_attrs_lenient(s: &str, names: &mut Names, fold: &mut String, out: &mut AttrBuf) {
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
        let sym = names.resolve(fold);
        let slot = out.push_named(sym, fold);
        if let Some(raw) = value {
            decode_html_entities_into(raw, slot);
        }
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
    use fx_xml::{Attribute, Symbols};

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
    fn a_quote_opens_a_value_only_right_after_an_equals_sign() {
        // The tag scanner and the attribute parser must agree on what is
        // quoted: once `title`'s value closes, the next quote is a name
        // character, so the first `>` ends the tag — however the value
        // before it was spelled.
        let unquoted = vec![
            Event::StartDocument,
            Event::start_with_attrs(
                "p",
                vec![Attribute::new("title", "a"), Attribute::new("\"b", "")],
            ),
            Event::text("c\">text"),
            Event::end("p"),
            Event::EndDocument,
        ];
        let quoted = vec![
            Event::StartDocument,
            Event::start_with_attrs("p", vec![Attribute::new("x", "b>c")]),
            Event::text("text"),
            Event::end("p"),
            Event::EndDocument,
        ];
        let cases = [
            (r#"<p title="a" "b>c">text</p>"#, &unquoted),
            (r#"<p title="a""b>c">text</p>"#, &unquoted),
            (r#"<p title=a "b>c">text</p>"#, &unquoted),
            (r#"<p x="b>c">text</p>"#, &quoted),
            (r#"<p x = "b>c">text</p>"#, &quoted),
        ];
        for (doc, want) in cases {
            for chunk_size in 1..=doc.len() {
                assert_eq!(
                    &parse_html_chunked(doc, chunk_size),
                    want,
                    "chunk size {chunk_size} on {doc}"
                );
            }
        }
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
    fn a_lookup_only_parser_stamps_both_tags_of_an_element_alike() {
        // Every length 1–40, and names with equal first and last eight
        // bytes; every other one is in the table.
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789-".chars().collect();
        let mut names: Vec<String> = (1..=40)
            .map(|n| {
                let tail = (1..n).map(|i| alphabet[(7 * i + n) % alphabet.len()]);
                std::iter::once('x').chain(tail).collect()
            })
            .collect();
        names.extend(
            [
                "prefix-axsuffix-z",
                "prefix-aysuffix-z",
                "prefix-azsuffix-z",
            ]
            .map(String::from),
        );
        let symbols = Arc::new(Symbols::new());
        let want: Vec<Sym> = (names.iter().enumerate())
            .map(|(i, n)| {
                if i % 2 == 0 {
                    symbols.intern(n)
                } else {
                    Sym::UNKNOWN
                }
            })
            .collect();
        let open: String = names.iter().map(|n| format!("<{n}>")).collect();
        let close: String = names.iter().rev().map(|n| format!("</{n}>")).collect();
        let mut parser = HtmlParser::with_symbols(Arc::clone(&symbols)).lookup_only();
        let mut syms = Vec::new();
        let mut emit = |ev: SymEvent<'_>, _| match ev {
            SymEvent::StartElement { name, .. } | SymEvent::EndElement { name } => syms.push(name),
            _ => {}
        };
        parser.feed_interned(&(open + &close), &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
        let k = names.len();
        assert_eq!(syms.len(), 2 * k);
        for (i, name) in names.iter().enumerate() {
            assert_eq!((syms[i], syms[2 * k - 1 - i]), (want[i], want[i]), "{name}");
        }
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
