//! Newline-delimited JSON (NDJSON) record streams.
//!
//! An NDJSON stream is a sequence of JSON documents, one per line —
//! the lingua franca of log pipelines and bulk APIs. [`NdjsonParser`]
//! maps the whole stream onto the engine's event surface as a
//! **document sequence**: each non-blank line becomes one framed
//! document (`StartDocument` … `EndDocument`) under the crate's JSON →
//! element mapping, exactly as if each record had been streamed through
//! [`crate::JsonParser`] on its own — but through one reusable parser, one
//! symbol table, and one pass over the input.
//!
//! Segmentation is sound because a *raw* newline byte can never occur
//! inside a JSON string token (the grammar requires it escaped as
//! `\n`), so splitting the byte stream at `0x0A` only ever cuts between
//! tokens or inside insignificant whitespace. Blank (whitespace-only)
//! lines are skipped. Spans are **stream-global** byte offsets, so a
//! match's span slices the original NDJSON input, not the record.
//!
//! A multi-document source composes with session reuse: drive the
//! stream once and every record's verdicts fold through the same
//! filter bank, with per-document state reset at each record's
//! `StartDocument` — which is how `fxgrep --format ndjson` answers
//! "does any record match".

use crate::parser::JsonGrammar;
use fx_xml::scan;
use fx_xml::{Cursor, EventSink, Frontend, Grammar, Names, ParseError};

/// A streaming NDJSON frontend: [`NdjsonGrammar`] on the shared
/// [`Frontend`] chassis — one [`JsonGrammar`] recycled across the
/// stream's records, each non-blank line framed as its own document.
/// It drives engine sessions exactly like the single-document
/// frontends.
pub type NdjsonParser = Frontend<NdjsonGrammar>;

/// NDJSON token state: the current record's.
#[derive(Debug, Clone, Default)]
pub struct NdjsonGrammar {
    record: JsonGrammar,
}

impl Grammar for NdjsonGrammar {
    fn drain<S: EventSink + ?Sized>(
        &mut self,
        names: &mut Names,
        input: &str,
        cur: &mut Cursor,
        at_eof: bool,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        loop {
            // Splitting at raw 0x0A is JSON-safe (never inside an
            // unescaped string). A trailing record without a final
            // newline still counts.
            let newline = scan::memchr(b'\n', &input.as_bytes()[cur.pos..]).map(|i| cur.pos + i);
            let Some(end) = newline.or(at_eof.then_some(input.len())) else {
                // Mid-record: its complete tokens stream out already.
                return self.record.drain(names, input, cur, false, sink);
            };
            // A whole line is a whole document; a line of whitespace
            // (which the record drain skips) is none.
            let line = &input[..end];
            self.record.drain(names, line, cur, true, sink)?;
            if self.record.started {
                self.record.finish(line, cur, sink)?;
            }
            self.record.reset();
            if newline.is_none() {
                return Ok(());
            }
            cur.advance(1);
            self.record.origin = cur.offset() as u64;
        }
    }

    /// Every record was finished at its line end.
    fn finish<S: EventSink + ?Sized>(
        &mut self,
        _input: &str,
        _cur: &mut Cursor,
        _sink: &mut S,
    ) -> Result<(), ParseError> {
        Ok(())
    }

    fn reset(&mut self) {
        self.record.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xml::{Event, Span, SymEvent};
    use std::sync::Arc;

    /// One whole stream through feed + finish.
    fn stream(
        p: &mut NdjsonParser,
        ndjson: &str,
        emit: &mut dyn FnMut(SymEvent<'_>, Span),
    ) -> Result<(), ParseError> {
        p.feed_interned(ndjson, emit)?;
        p.finish_interned(emit)
    }

    fn events_of(ndjson: &str) -> Vec<Event> {
        let mut p = NdjsonParser::new();
        let symbols = Arc::clone(p.symbols());
        let mut out = Vec::new();
        stream(&mut p, ndjson, &mut |ev, _| out.push(ev.to_owned(&symbols))).unwrap();
        out
    }

    #[test]
    fn each_line_is_one_framed_document() {
        let evs = events_of("{\"a\":1}\n{\"a\":2}\n");
        let docs = evs
            .iter()
            .filter(|e| matches!(e, Event::StartDocument))
            .count();
        assert_eq!(docs, 2);
        let mut per_record = crate::parse_json("{\"a\":1}").unwrap();
        per_record.extend(crate::parse_json("{\"a\":2}").unwrap());
        assert_eq!(evs, per_record);
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline() {
        let evs = events_of("\n{\"a\":1}\n\n   \n{\"a\":2}");
        let docs = evs
            .iter()
            .filter(|e| matches!(e, Event::StartDocument))
            .count();
        assert_eq!(docs, 2, "blank lines produce no documents");
    }

    #[test]
    fn spans_are_stream_global() {
        let ndjson = "{\"a\":1}\n{\"bb\":22}\n";
        let mut p = NdjsonParser::new();
        let symbols = Arc::clone(p.symbols());
        let (mut spans, mut doc_starts) = (Vec::new(), Vec::new());
        stream(&mut p, ndjson, &mut |ev, span| match ev {
            SymEvent::StartDocument => doc_starts.push(span.start),
            SymEvent::StartElement { name, .. } if symbols.resolve(name) == "bb" => {
                spans.push(span)
            }
            _ => {}
        })
        .unwrap();
        assert_eq!(spans.len(), 1);
        // The second record's "bb" member starts after the first line,
        // and its span (the value token, per the JSON mapping) slices
        // the *stream*, not the record.
        assert!(spans[0].start >= 8, "{:?}", spans[0]);
        assert_eq!(spans[0].slice(ndjson), Some("22"));
        // Each record's framing starts at its line.
        assert_eq!(doc_starts, [0, 8]);
    }

    #[test]
    fn malformed_record_is_an_error() {
        let mut p = NdjsonParser::new();
        let err = stream(&mut p, "{\"a\":1}\n{broken\n", &mut |_, _| {}).unwrap_err();
        // Positioned in the stream, not in the record.
        assert_eq!((err.line, err.column), (0, 10), "{err}");
    }

    #[test]
    fn parser_is_reusable_across_streams() {
        let mut p = NdjsonParser::new();
        let symbols = Arc::clone(p.symbols());
        for _ in 0..2 {
            let mut docs = 0;
            stream(&mut p, "{\"a\":1}\n{\"a\":2}\n", &mut |ev, _| {
                if ev.to_owned(&symbols) == Event::StartDocument {
                    docs += 1;
                }
            })
            .unwrap();
            assert_eq!(docs, 2);
            p.reset();
        }
    }
}
