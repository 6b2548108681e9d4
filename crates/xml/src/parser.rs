//! The whole-string XML parser behind [`parse`] — the workspace's
//! **reference tokenizer**.
//!
//! `Document::from_xml`, every differential suite and `fxbench`'s
//! per-document oracle obtain their ground truth through this parser,
//! and the product path through [`crate::StreamingParser`]: two
//! independent implementations, so a tokenizer bug in either shows up
//! as a disagreement. That is why `parse` is *not* "stream one chunk
//! and collect", however tempting the deduplication: it would route
//! oracle and product through the same code. The two differ observably
//! only in text segmentation — this parser coalesces text across
//! comments and CDATA sections into one `text` event where the streaming
//! one emits a run of them — which no query can tell apart.
//!
//! The parser is a single pass over the input string. It supports the subset
//! of XML needed by the paper's data model (§3.1.1): elements, attributes,
//! text (with entity and CDATA decoding), comments, processing instructions,
//! and a DOCTYPE prolog (the latter three are skipped). Namespaces are not
//! interpreted — qualified names are kept verbatim, matching the paper's flat
//! name universe `N`.

use crate::escape::decode_entities;
use crate::event::{Attribute, Event};
use crate::span::Span;
use std::fmt;

/// Options controlling parsing behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions {
    /// If false (the default), text nodes consisting entirely of whitespace
    /// are dropped. Documents in the paper never contain ignorable
    /// whitespace; dropping it makes pretty-printed fixtures equivalent to
    /// their compact forms.
    pub keep_whitespace_text: bool,
}

/// A parse error with its position in the input.
///
/// [`parse`] and friends, which see the whole input, report a 1-based
/// `line:column`. The streaming frontends ([`crate::Frontend`]: XML,
/// HTML, JSON, NDJSON) keep no line bookkeeping: they set `line` to 0
/// and `column` to the 1-based *byte* position in the stream — of the
/// byte just past the offending token, of the first offending byte for
/// invalid UTF-8, of the byte that could not be read for an I/O error.
/// Both fields 0 means the position is unknown; no frontend reports
/// that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line of the error; 0 when `column` is a byte position.
    pub line: usize,
    /// 1-based column of the error (a stream byte position when `line`
    /// is 0).
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (0, 0) => write!(f, "XML parse error: {}", self.message),
            (0, byte) => write!(f, "XML parse error at byte {byte}: {}", self.message),
            (line, column) => write!(f, "XML parse error at {line}:{column}: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an XML document into a SAX event sequence, including the
/// surrounding `StartDocument`/`EndDocument` events.
pub fn parse(input: &str) -> Result<Vec<Event>, ParseError> {
    parse_with(input, ParseOptions::default())
}

/// [`parse`] with explicit [`ParseOptions`].
pub fn parse_with(input: &str, options: ParseOptions) -> Result<Vec<Event>, ParseError> {
    let mut p = Parser::new(input, options);
    p.run()?;
    Ok(p.events)
}

/// [`parse`], with each event's source byte [`Span`]: tag spans for
/// element events, raw character regions for text (covering any comment
/// or CDATA boundary the run was coalesced across), and zero-width
/// spans for the document framing events.
pub fn parse_spanned(input: &str) -> Result<Vec<(Event, Span)>, ParseError> {
    parse_spanned_with(input, ParseOptions::default())
}

/// [`parse_spanned`] with explicit [`ParseOptions`].
pub fn parse_spanned_with(
    input: &str,
    options: ParseOptions,
) -> Result<Vec<(Event, Span)>, ParseError> {
    let mut p = Parser::new(input, options);
    p.run()?;
    Ok(p.events.into_iter().zip(p.spans).collect())
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    options: ParseOptions,
    events: Vec<Event>,
    /// One span per event, parallel to `events`.
    spans: Vec<Span>,
    stack: Vec<String>,
    pending_text: String,
    /// Source region the pending text was decoded from (covers comment
    /// and CDATA boundaries when runs are coalesced).
    pending_text_span: Option<Span>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: ParseOptions) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            options,
            events: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            pending_text: String::new(),
            pending_text_span: None,
        }
    }

    fn emit(&mut self, event: Event, span: Span) {
        self.events.push(event);
        self.spans.push(span);
    }

    fn note_text_region(&mut self, start: usize, end: usize) {
        let region = Span::new(start as u64, end as u64);
        self.pending_text_span = Some(match self.pending_text_span {
            Some(s) => s.cover(region),
            None => region,
        });
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let consumed = &self.input[..self.pos.min(self.input.len())];
        let line = consumed.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = consumed.len() - consumed.rfind('\n').map(|i| i + 1).unwrap_or(0) + 1;
        ParseError {
            message: message.into(),
            line,
            column,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn flush_text(&mut self) -> Result<(), ParseError> {
        let span = self.pending_text_span.take().unwrap_or_default();
        if self.pending_text.is_empty() {
            return Ok(());
        }
        let text = std::mem::take(&mut self.pending_text);
        let keep = self.options.keep_whitespace_text || !text.chars().all(char::is_whitespace);
        if keep {
            if self.stack.is_empty() {
                return Err(self.err("text content outside the root element"));
            }
            self.emit(Event::Text { content: text }, span);
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), ParseError> {
        self.emit(Event::StartDocument, Span::point(0));
        // A byte-order mark may open the input (XML 1.0 §4.3.3).
        if self.starts_with("\u{feff}") {
            self.bump('\u{feff}'.len_utf8());
        }
        // Prolog: XML declaration, comments, PIs, DOCTYPE.
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                break;
            }
        }
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        self.parse_content()?;
        // Epilog: trailing comments / PIs / whitespace only.
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else {
                break;
            }
        }
        if self.pos != self.input.len() {
            return Err(self.err("trailing content after root element"));
        }
        self.emit(Event::EndDocument, Span::point(self.input.len() as u64));
        Ok(())
    }

    /// Parses the root element and everything nested in it.
    fn parse_content(&mut self) -> Result<(), ParseError> {
        let mut seen_root = false;
        loop {
            match self.peek() {
                None => {
                    if !self.stack.is_empty() {
                        return Err(self.err(format!(
                            "unexpected end of input; unclosed element `{}`",
                            self.stack.last().unwrap()
                        )));
                    }
                    return Err(self.err("empty document"));
                }
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<![CDATA[") {
                        self.parse_cdata()?;
                    } else if self.starts_with("<?") {
                        self.skip_pi()?;
                    } else if self.starts_with("</") {
                        self.flush_text()?;
                        self.parse_end_tag()?;
                        if self.stack.is_empty() {
                            return Ok(());
                        }
                    } else {
                        self.flush_text()?;
                        if self.stack.is_empty() && seen_root {
                            return Err(self.err("multiple root elements"));
                        }
                        seen_root = true;
                        let self_closing = self.parse_start_tag()?;
                        if self_closing && self.stack.is_empty() {
                            return Ok(());
                        }
                    }
                }
                Some(_) => self.parse_text()?,
            }
        }
    }

    fn parse_text(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        let decoded = decode_entities(raw).map_err(|e| self.err(e.to_string()))?;
        self.pending_text.push_str(&decoded);
        self.note_text_region(start, self.pos);
        Ok(())
    }

    fn parse_cdata(&mut self) -> Result<(), ParseError> {
        let tag_start = self.pos;
        self.bump("<![CDATA[".len());
        let rest = &self.input[self.pos..];
        let end = rest
            .find("]]>")
            .ok_or_else(|| self.err("unterminated CDATA section"))?;
        let content = rest[..end].to_string();
        self.pending_text.push_str(&content);
        self.bump(end + 3);
        self.note_text_region(tag_start, self.pos);
        Ok(())
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.bump("<!--".len());
        let rest = &self.input[self.pos..];
        let end = rest
            .find("-->")
            .ok_or_else(|| self.err("unterminated comment"))?;
        self.bump(end + 3);
        Ok(())
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        self.bump("<?".len());
        let rest = &self.input[self.pos..];
        let end = rest
            .find("?>")
            .ok_or_else(|| self.err("unterminated processing instruction"))?;
        self.bump(end + 2);
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // Skip to the matching `>`, tolerating a bracketed internal subset.
        self.bump("<!DOCTYPE".len());
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE"))
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok =
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let first = self.bytes[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(self.err("names may not start with a digit, `-`, or `.`"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// Parses `<name attr="v" ...>` or `<name ... />`. Returns whether the
    /// tag was self-closing.
    fn parse_start_tag(&mut self) -> Result<bool, ParseError> {
        let tag_start = self.pos as u64;
        self.bump(1); // consume '<'
        let name = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump(1);
                    let span = Span::new(tag_start, self.pos as u64);
                    self.emit(
                        Event::StartElement {
                            name: name.clone(),
                            attributes,
                        },
                        span,
                    );
                    self.stack.push(name);
                    return Ok(false);
                }
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("expected `/>`"));
                    }
                    self.bump(2);
                    // Both events of a self-closing tag share its span.
                    let span = Span::new(tag_start, self.pos as u64);
                    self.emit(
                        Event::StartElement {
                            name: name.clone(),
                            attributes,
                        },
                        span,
                    );
                    self.emit(Event::EndElement { name }, span);
                    return Ok(true);
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("expected `=` after attribute `{attr_name}`")));
                    }
                    self.bump(1);
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.bump(1);
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        if b == b'<' {
                            return Err(self.err("`<` is not allowed in attribute values"));
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = &self.input[start..self.pos];
                    self.bump(1);
                    let value = decode_entities(raw)
                        .map_err(|e| self.err(e.to_string()))?
                        .into_owned();
                    if attributes.iter().any(|a: &Attribute| a.name == attr_name) {
                        return Err(self.err(format!("duplicate attribute `{attr_name}`")));
                    }
                    attributes.push(Attribute {
                        name: attr_name,
                        value,
                    });
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    fn parse_end_tag(&mut self) -> Result<(), ParseError> {
        let tag_start = self.pos as u64;
        self.bump(2); // consume '</'
        let name = self.parse_name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("expected `>` in end tag"));
        }
        self.bump(1);
        let span = Span::new(tag_start, self.pos as u64);
        match self.stack.pop() {
            Some(open) if open == name => {
                self.emit(Event::EndElement { name }, span);
                Ok(())
            }
            Some(open) => Err(self.err(format!(
                "mismatched end tag `</{name}>`; expected `</{open}>`"
            ))),
            None => Err(self.err(format!("end tag `</{name}>` without matching start tag"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::notation;

    fn names(events: &[Event]) -> Vec<String> {
        events.iter().map(|e| e.notation()).collect()
    }

    #[test]
    fn parses_paper_document_d() {
        // Document D from the proof of Theorem 4.2.
        let events = parse("<a><c><e/><f/></c><b>6</b></a>").unwrap();
        assert_eq!(
            notation(&events),
            "\u{27e8}$\u{27e9}\u{27e8}a\u{27e9}\u{27e8}c\u{27e9}\u{27e8}e\u{27e9}\u{27e8}/e\u{27e9}\u{27e8}f\u{27e9}\u{27e8}/f\u{27e9}\u{27e8}/c\u{27e9}\u{27e8}b\u{27e9}6\u{27e8}/b\u{27e9}\u{27e8}/a\u{27e9}\u{27e8}/$\u{27e9}"
        );
    }

    #[test]
    fn drops_whitespace_only_text_by_default() {
        let events = parse("<a>\n  <b/>\n</a>").unwrap();
        assert!(!events.iter().any(|e| matches!(e, Event::Text { .. })));
    }

    #[test]
    fn keeps_whitespace_when_asked() {
        let events = parse_with(
            "<a> <b/></a>",
            ParseOptions {
                keep_whitespace_text: true,
            },
        )
        .unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Text { content } if content == " ")));
    }

    #[test]
    fn parses_attributes() {
        let events = parse(r#"<a id="1" name='x &amp; y'/>"#).unwrap();
        match &events[1] {
            Event::StartElement { name, attributes } => {
                assert_eq!(name, "a");
                assert_eq!(attributes.len(), 2);
                assert_eq!(attributes[0], Attribute::new("id", "1"));
                assert_eq!(attributes[1], Attribute::new("name", "x & y"));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_attributes() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn decodes_entities_in_text() {
        let events = parse("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>").unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Text { content } if content == "1 < 2 && 3 > 2")));
    }

    #[test]
    fn cdata_becomes_text() {
        let events = parse("<a><![CDATA[x < y & z]]></a>").unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Text { content } if content == "x < y & z")));
    }

    #[test]
    fn coalesces_text_across_comments() {
        let events = parse("<a>he<!-- comment -->llo</a>").unwrap();
        let texts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Text { content } => Some(content.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["hello"]);
    }

    #[test]
    fn skips_prolog_and_doctype() {
        let doc = "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><!-- hi --><a/>";
        let events = parse(doc).unwrap();
        assert_eq!(names(&events).len(), 4); // <$> <a> </a> </$>
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_unclosed_root() {
        assert!(parse("<a><b></b>").is_err());
    }

    #[test]
    fn rejects_multiple_roots() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn rejects_text_outside_root() {
        assert!(parse("junk<a/>").is_err());
    }

    #[test]
    fn error_positions_are_one_based() {
        let err = parse("<a>\n<b x=1/></a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
        let at = format!("XML parse error at 2:{}: ", err.column);
        assert!(err.to_string().starts_with(&at), "{err}");
        // No position at all (I/O, early UTF-8 validation): none printed.
        let unknown = ParseError {
            message: "read error".to_string(),
            line: 0,
            column: 0,
        };
        assert_eq!(unknown.to_string(), "XML parse error: read error");
    }

    #[test]
    fn nested_empty_element_shorthand() {
        // `<n/>` is shorthand for `<n></n>` (§3.1.4).
        let a = parse("<a><n/></a>").unwrap();
        let b = parse("<a><n></n></a>").unwrap();
        assert_eq!(a, b);
    }
}
