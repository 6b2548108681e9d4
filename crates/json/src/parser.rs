//! The JSON grammar and its event mapping.
//!
//! [`JsonParser`] is `fx_xml::StreamingParser`'s sibling on the same
//! [`Frontend`] chassis: feed chunks at arbitrary boundaries, interned
//! [`SymEvent`]s come out the moment a token completes, scratch buffers
//! keep the steady state allocation-free, and `reset` makes one parser
//! serve many documents. See the crate docs for the JSON → element
//! mapping.

use fx_xml::scan;
use fx_xml::{Cursor, EventSink, Frontend, Grammar, Names, ParseError, Span, Sym, SymEvent};
use std::sync::Arc;

/// A container the parser is inside of, on the explicit nesting stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Inside `{ … }`; `close` is the element its `}` closes.
    Object { close: Sym },
    /// Inside `[ … ]`; items open `item`-named elements. `close` is
    /// `Some` for wrapped arrays (item position / root) and `None` for
    /// spliced member-value arrays, whose `]` emits nothing.
    Array { item: Sym, close: Option<Sym> },
}

/// What the grammar allows next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Expect {
    #[default]
    Value,
    MemberName,
    Colon,
    CommaOrEndObject,
    CommaOrEndArray,
    Done,
}

/// The streaming JSON → element-event adapter: [`JsonGrammar`] on the
/// shared [`Frontend`] chassis. Feed it chunks; events come out with
/// cumulative byte [`Span`]s (a scalar's element start/text/end all
/// carry the scalar token's span). Memory is bounded by the largest
/// single token and the nesting depth, never by document size.
pub type JsonParser = Frontend<JsonGrammar>;

/// JSON token state. See the crate docs for the JSON → element mapping.
#[derive(Debug, Clone, Default)]
pub struct JsonGrammar {
    stack: Vec<Frame>,
    expect: Expect,
    /// The element name (and array-wrap flag) the next value opens;
    /// `None` only before the root value, which resolves `json`.
    pending: Option<(Sym, bool)>,
    pub(crate) started: bool,
    /// Stream offset this document starts at: 0, except for the records
    /// of an NDJSON stream.
    pub(crate) origin: u64,
    /// Reused escape-decoded string buffer; `Text` events borrow it.
    text_scratch: String,
}

impl JsonGrammar {
    /// The name/wrap slot the next value fills (resolving the `json`
    /// root on first use).
    fn take_pending(&mut self, names: &mut Names) -> (Sym, bool) {
        match self.pending.take() {
            Some(p) => p,
            None => (names.resolve("json"), true),
        }
    }

    fn ensure_started<F: FnMut(SymEvent<'_>, Span) + ?Sized>(&mut self, emit: &mut F) {
        if !self.started {
            self.started = true;
            emit(SymEvent::StartDocument, Span::point(self.origin));
        }
    }

    /// Sets `expect` for the position just after a completed value.
    fn after_value(&mut self) {
        self.expect = match self.stack.last() {
            None => Expect::Done,
            Some(Frame::Object { .. }) => Expect::CommaOrEndObject,
            Some(Frame::Array { .. }) => Expect::CommaOrEndArray,
        };
    }

    /// Pops the innermost container at its `}` / `]`.
    fn close_container<F: FnMut(SymEvent<'_>, Span) + ?Sized>(&mut self, span: Span, emit: &mut F) {
        let frame = self.stack.pop().expect("close with open container");
        let close = match frame {
            Frame::Object { close } => Some(close),
            Frame::Array { close, .. } => close,
        };
        if let Some(name) = close {
            emit(SymEvent::EndElement { name }, span);
        }
        self.after_value();
    }

    /// Emits the element/text/element triple of a scalar — `literal`,
    /// or the string decoded into `text_scratch` — with no text event
    /// for empty content.
    fn emit_scalar<F: FnMut(SymEvent<'_>, Span) + ?Sized>(
        &mut self,
        name: Sym,
        literal: Option<&str>,
        span: Span,
        emit: &mut F,
    ) {
        self.ensure_started(emit);
        self.after_value();
        let content = literal.unwrap_or(&self.text_scratch);
        emit(
            SymEvent::StartElement {
                name,
                attributes: &[],
            },
            span,
        );
        if !content.is_empty() {
            emit(SymEvent::Text { content }, span);
        }
        emit(SymEvent::EndElement { name }, span);
    }

    /// The complete string token at the cursor, escape-decoded into
    /// `text_scratch`: its length, or `None` while the closing quote is
    /// still missing.
    fn string_token(
        &mut self,
        b: &str,
        cur: &Cursor,
        at_eof: bool,
    ) -> Result<Option<usize>, ParseError> {
        let Some(len) = string_token_len(b) else {
            if at_eof {
                return Err(cur.error("unterminated string"));
            }
            return Ok(None);
        };
        self.text_scratch.clear();
        decode_json_string(&b[1..len - 1], &mut self.text_scratch).map_err(|m| cur.error(m))?;
        Ok(Some(len))
    }
}

impl Grammar for JsonGrammar {
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
            let b = &input[cur.pos..];
            let skip = b.len()
                - b.trim_start_matches(|c: char| c.is_ascii_whitespace() || c == '\u{feff}')
                    .len();
            cur.advance(skip);
            let b = &b[skip..];
            let Some(c) = b.bytes().next() else {
                return Ok(());
            };
            match self.expect {
                Expect::Done => return Err(cur.error("trailing content after JSON value")),
                Expect::Value => match c {
                    b'{' => {
                        let (name, _) = self.take_pending(names);
                        let span = cur.advance(1);
                        self.ensure_started(emit);
                        emit(
                            SymEvent::StartElement {
                                name,
                                attributes: &[],
                            },
                            span,
                        );
                        self.stack.push(Frame::Object { close: name });
                        self.expect = Expect::MemberName;
                    }
                    b'[' => {
                        let (name, wrap) = self.take_pending(names);
                        let span = cur.advance(1);
                        self.ensure_started(emit);
                        let item = if wrap {
                            emit(
                                SymEvent::StartElement {
                                    name,
                                    attributes: &[],
                                },
                                span,
                            );
                            names.resolve("item")
                        } else {
                            name
                        };
                        self.stack.push(Frame::Array {
                            item,
                            close: wrap.then_some(name),
                        });
                        self.pending = Some((item, true));
                        self.expect = Expect::Value;
                    }
                    b']' if matches!(self.stack.last(), Some(Frame::Array { .. })) => {
                        // Empty array (or lenient trailing comma).
                        self.pending = None;
                        let span = cur.advance(1);
                        self.close_container(span, emit);
                    }
                    b'"' => {
                        let Some(len) = self.string_token(b, cur, at_eof)? else {
                            return Ok(());
                        };
                        let (name, _) = self.take_pending(names);
                        let span = cur.advance(len);
                        self.emit_scalar(name, None, span, emit);
                    }
                    b'-' | b'0'..=b'9' => {
                        let Some(len) = number_token_len(b, at_eof) else {
                            return Ok(());
                        };
                        let (name, _) = self.take_pending(names);
                        let span = cur.advance(len);
                        self.emit_scalar(name, Some(&b[..len]), span, emit);
                    }
                    b't' | b'f' | b'n' => {
                        let word = match c {
                            b't' => "true",
                            b'f' => "false",
                            _ => "null",
                        };
                        if b.len() < word.len() {
                            if word.as_bytes().starts_with(b.as_bytes()) && !at_eof {
                                return Ok(()); // literal split across chunks
                            }
                            return Err(cur.error(format!("invalid JSON value `{b}`")));
                        }
                        if !b.starts_with(word) {
                            return Err(cur.error("invalid JSON value"));
                        }
                        let (name, _) = self.take_pending(names);
                        let span = cur.advance(word.len());
                        let content = if c == b'n' { "" } else { word };
                        self.emit_scalar(name, Some(content), span, emit);
                    }
                    _ => {
                        return Err(
                            cur.error(format!("expected a JSON value, found `{}`", c as char))
                        )
                    }
                },
                Expect::MemberName => match c {
                    b'}' => {
                        let span = cur.advance(1);
                        self.close_container(span, emit);
                    }
                    b'"' => {
                        let Some(len) = self.string_token(b, cur, at_eof)? else {
                            return Ok(());
                        };
                        let sym = names.resolve(&self.text_scratch);
                        cur.advance(len);
                        self.pending = Some((sym, false));
                        self.expect = Expect::Colon;
                    }
                    _ => return Err(cur.error("expected object key or `}`")),
                },
                Expect::Colon => {
                    if c != b':' {
                        return Err(cur.error("expected `:` after object key"));
                    }
                    cur.advance(1);
                    self.expect = Expect::Value;
                }
                Expect::CommaOrEndObject => match c {
                    b',' => {
                        cur.advance(1);
                        self.expect = Expect::MemberName;
                    }
                    b'}' => {
                        let span = cur.advance(1);
                        self.close_container(span, emit);
                    }
                    _ => return Err(cur.error("expected `,` or `}` in object")),
                },
                Expect::CommaOrEndArray => match c {
                    b',' => {
                        cur.advance(1);
                        let item = match self.stack.last() {
                            Some(Frame::Array { item, .. }) => *item,
                            _ => unreachable!("array position without array frame"),
                        };
                        self.pending = Some((item, true));
                        self.expect = Expect::Value;
                    }
                    b']' => {
                        let span = cur.advance(1);
                        self.close_container(span, emit);
                    }
                    _ => return Err(cur.error("expected `,` or `]` in array")),
                },
            }
        }
    }

    /// Verifies the document held exactly one root value and emits
    /// `EndDocument`.
    fn finish<S: EventSink + ?Sized>(
        &mut self,
        _input: &str,
        cur: &mut Cursor,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        let emit = &mut |ev: SymEvent<'_>, span: Span| sink.event(ev, span);
        if !self.started {
            return Err(cur.error("empty document"));
        }
        if self.expect != Expect::Done {
            return Err(cur.error("unexpected end of JSON input"));
        }
        emit(SymEvent::EndDocument, Span::point(cur.offset() as u64));
        Ok(())
    }

    fn reset(&mut self) {
        self.stack.clear();
        self.expect = Expect::Value;
        self.pending = None;
        self.started = false;
        self.origin = 0;
    }
}

/// Length of the complete string token (including both quotes) at the
/// start of `b`, or `None` while the closing quote is still missing.
fn string_token_len(b: &str) -> Option<usize> {
    let bytes = b.as_bytes();
    debug_assert_eq!(bytes[0], b'"');
    // SWAR skip to the next `"` or `\`: ordinary string content (the
    // overwhelming majority of bytes) is crossed in word strides.
    let mut i = 1;
    while i < bytes.len() {
        match scan::memchr2(b'"', b'\\', &bytes[i..]) {
            None => return None,
            Some(p) if bytes[i + p] == b'"' => return Some(i + p + 1),
            // An escape: skip the backslash and the escaped byte (which
            // may still be missing at the buffer end -> keep waiting).
            Some(p) => i += p + 2,
        }
    }
    None
}

/// Length of the number token at the start of `b` (by token shape, not
/// full grammar), or `None` while it might continue into the next
/// chunk.
fn number_token_len(b: &str, at_eof: bool) -> Option<usize> {
    let end = b
        .bytes()
        .position(|c| !matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        .unwrap_or(b.len());
    if end == b.len() && !at_eof {
        None
    } else {
        Some(end)
    }
}

/// Reads exactly four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Result<u32, String> {
    let mut v = 0;
    for _ in 0..4 {
        let c = chars.next().ok_or("truncated \\u escape")?;
        v = v * 16 + c.to_digit(16).ok_or("invalid \\u escape")?;
    }
    Ok(v)
}

/// Decodes the escapes of a string token's interior into `out`.
fn decode_json_string(inner: &str, out: &mut String) -> Result<(), String> {
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hi = hex4(&mut chars)?;
                if (0xdc00..0xe000).contains(&hi) {
                    return Err("unpaired low surrogate".to_string());
                }
                if (0xd800..0xdc00).contains(&hi) {
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return Err("unpaired high surrogate".to_string());
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err("invalid surrogate pair".to_string());
                    }
                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                } else {
                    out.push(char::from_u32(hi).unwrap_or('\u{fffd}'));
                }
            }
            _ => return Err("invalid escape sequence".to_string()),
        }
    }
    Ok(())
}

/// Parses a whole JSON string into owned events under the crate's
/// mapping — the convenience form for tests and DOM building
/// (interning mode, fresh table).
pub fn parse_json(json: &str) -> Result<Vec<fx_xml::Event>, ParseError> {
    let mut parser = JsonParser::new();
    let symbols = Arc::clone(parser.symbols());
    let mut events = Vec::new();
    parser.feed_interned(json, &mut |ev, _| events.push(ev.to_owned(&symbols)))?;
    parser.finish_interned(&mut |ev, _| events.push(ev.to_owned(&symbols)))?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xml::{to_xml, Event, Symbols};

    fn as_xml(json: &str) -> String {
        to_xml(&parse_json(json).unwrap()).unwrap()
    }

    #[test]
    fn objects_members_and_scalars_map() {
        assert_eq!(
            as_xml(r#"{"a": 1, "b": "two", "c": true, "d": null}"#),
            "<json><a>1</a><b>two</b><c>true</c><d/></json>"
        );
    }

    #[test]
    fn member_value_arrays_splice() {
        assert_eq!(
            as_xml(r#"{"a": [1, 2, 3]}"#),
            "<json><a>1</a><a>2</a><a>3</a></json>"
        );
        assert_eq!(as_xml(r#"{"a": []}"#), "<json/>");
    }

    #[test]
    fn nested_arrays_wrap() {
        assert_eq!(
            as_xml(r#"{"a": [[1, 2], [3]]}"#),
            "<json><a><item>1</item><item>2</item></a><a><item>3</item></a></json>"
        );
    }

    #[test]
    fn root_forms() {
        assert_eq!(as_xml("42"), "<json>42</json>");
        assert_eq!(as_xml(r#""hi""#), "<json>hi</json>");
        assert_eq!(
            as_xml("[1, 2]"),
            "<json><item>1</item><item>2</item></json>"
        );
        assert_eq!(as_xml("{}"), "<json/>");
        assert_eq!(as_xml("null"), "<json/>");
    }

    #[test]
    fn deep_structure_preserved() {
        assert_eq!(
            as_xml(r#"{"user": {"name": "ada", "langs": ["en", "fr"]}}"#),
            "<json><user><name>ada</name><langs>en</langs><langs>fr</langs></user></json>"
        );
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(as_xml(r#"{"s": "a\nb\t\"q\" \\ A 😀"}"#), {
            let decoded = "a\nb\t\"q\" \\ A \u{1f600}";
            format!("<json><s>{}</s></json>", fx_xml::escape_text(decoded))
        });
    }

    #[test]
    fn numbers_keep_literal_spelling() {
        assert_eq!(
            as_xml(r#"{"n": [0, -1.5, 2e10, 6.02e-23]}"#),
            "<json><n>0</n><n>-1.5</n><n>2e10</n><n>6.02e-23</n></json>"
        );
    }

    #[test]
    fn malformed_json_errors() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json(r#"{"a": 1} extra"#).is_err());
        assert!(parse_json(r#""unterminated"#).is_err());
    }

    #[test]
    fn chunked_parsing_matches_batch() {
        let docs = [
            r#"{"a": [1, 22, 333], "b": {"c": "x y", "d": null}}"#,
            r#"[true, false, "mix", {"k": [9]}]"#,
            r#"{"s": "aBc", "n": -1.5e3}"#,
        ];
        for doc in docs {
            let batch = parse_json(doc).unwrap();
            for chunk_size in 1..=doc.len().min(7) {
                let mut parser = JsonParser::new();
                let symbols = Arc::clone(parser.symbols());
                let mut events = Vec::new();
                let bytes = doc.as_bytes();
                let mut i = 0;
                while i < bytes.len() {
                    let end = (i + chunk_size).min(bytes.len());
                    parser
                        .feed_interned(
                            std::str::from_utf8(&bytes[i..end]).unwrap(),
                            &mut |ev, _| events.push(ev.to_owned(&symbols)),
                        )
                        .unwrap();
                    i = end;
                }
                parser
                    .finish_interned(&mut |ev, _| events.push(ev.to_owned(&symbols)))
                    .unwrap();
                assert_eq!(events, batch, "chunk size {chunk_size} on {doc}");
            }
        }
    }

    #[test]
    fn spans_cover_source_tokens() {
        let json = r#"{"a": 17}"#;
        let mut parser = JsonParser::new();
        let symbols = Arc::clone(parser.symbols());
        let mut got = Vec::new();
        parser
            .feed_interned(json, &mut |ev, s| got.push((ev.to_owned(&symbols), s)))
            .unwrap();
        parser
            .finish_interned(&mut |ev, s| got.push((ev.to_owned(&symbols), s)))
            .unwrap();
        // <json> opens at `{`, <a>/text/</a> all span the `17` token.
        assert_eq!(got[1], (Event::start("json"), Span::new(0, 1)));
        assert_eq!(got[3], (Event::text("17"), Span::new(6, 8)));
        assert_eq!(got[5].0, Event::end("json"));
        assert_eq!(got[5].1, Span::new(8, 9));
    }

    #[test]
    fn a_lookup_only_parser_stamps_both_tags_of_an_element_alike() {
        // Keys of every length 1–40, keys with equal first and last
        // eight bytes, multi-byte and empty keys; every other one is in
        // the table.
        let mut names: Vec<String> = (1..=40)
            .map(|n| {
                (0..n)
                    .map(|i| (b'a' + ((7 * i + n) % 26) as u8) as char)
                    .collect()
            })
            .collect();
        let more = [
            "prefix-axsuffix-z",
            "prefix-aysuffix-z",
            "名前",
            "",
            "ελληνικά-ονόματα",
        ];
        names.extend(more.map(String::from));
        let symbols = Arc::new(Symbols::new());
        let json = symbols.intern("json");
        let want: Vec<Sym> = (names.iter().enumerate())
            .map(|(i, n)| {
                if i % 2 == 0 {
                    symbols.intern(n)
                } else {
                    Sym::UNKNOWN
                }
            })
            .collect();
        let open: String = names.iter().map(|n| format!("{{\"{n}\": ")).collect();
        let doc = open + "1" + &"}".repeat(names.len());
        let mut parser = JsonParser::with_symbols(Arc::clone(&symbols)).lookup_only();
        let mut syms = Vec::new();
        let mut emit = |ev: SymEvent<'_>, _| match ev {
            SymEvent::StartElement { name, .. } | SymEvent::EndElement { name } => syms.push(name),
            _ => {}
        };
        parser.feed_interned(&doc, &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
        // `<json>` around the first key's object, then one element per key.
        let k = names.len();
        assert_eq!(
            (syms.len(), syms[0], syms[2 * k + 1]),
            (2 * k + 2, json, json)
        );
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                (syms[1 + i], syms[2 * k - i]),
                (want[i], want[i]),
                "{name:?}"
            );
        }
    }

    #[test]
    fn lookup_only_bounds_the_table() {
        let symbols = Arc::new(Symbols::new());
        symbols.intern("json");
        symbols.intern("known");
        let before = symbols.len();
        let mut parser = JsonParser::with_symbols(Arc::clone(&symbols)).lookup_only();
        let mut unknown = 0;
        parser
            .feed_interned(r#"{"known": 1, "mystery": 2}"#, &mut |ev, _| {
                if let SymEvent::StartElement { name, .. } = ev {
                    if name == Sym::UNKNOWN {
                        unknown += 1;
                    }
                }
            })
            .unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        assert_eq!(unknown, 1);
        assert_eq!(symbols.len(), before, "lookup-only must not grow the table");
    }

    #[test]
    fn reset_allows_reuse() {
        let mut parser = JsonParser::new();
        let symbols = Arc::clone(parser.symbols());
        parser.feed_interned(r#"{"a": 1}"#, &mut |_, _| {}).unwrap();
        parser.finish_interned(&mut |_, _| {}).unwrap();
        parser.reset();
        let mut events = Vec::new();
        parser
            .feed_interned(r#"[7]"#, &mut |ev, _| events.push(ev.to_owned(&symbols)))
            .unwrap();
        parser
            .finish_interned(&mut |ev, _| events.push(ev.to_owned(&symbols)))
            .unwrap();
        assert_eq!(events, parse_json("[7]").unwrap());
    }
}
