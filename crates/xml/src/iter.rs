//! A pull-based event source: [`EventIter`] adapts any [`std::io::Read`]
//! into an `Iterator<Item = Result<Event, ParseError>>`, driving the
//! incremental [`StreamingParser`] one fixed-size chunk at a time.
//!
//! This is the inversion of the parser's push model: instead of handing
//! interned events to a callback, the consumer *pulls* owned ones, each
//! materialized through [`crate::SymEvent::to_owned`] as its chunk is
//! parsed. Memory is bounded by the read buffer plus the largest single
//! XML token, independent of document size — the setting the paper's
//! space bounds are about. It is a convenience surface (examples,
//! fixtures): the engine consumes [`crate::EventBatch`]es and never
//! allocates per event.
//!
//! ```
//! use fx_xml::{Event, EventIter};
//!
//! let doc = "<a><b>6</b></a>";
//! let events: Vec<Event> = EventIter::new(doc.as_bytes())
//!     .collect::<Result<_, _>>()
//!     .unwrap();
//! assert_eq!(events, fx_xml::parse(doc).unwrap());
//! ```

use crate::event::Event;
use crate::parser::ParseError;
use crate::reader::StreamingParser;
use crate::span::Span;
use crate::symbols::SymEvent;
use std::collections::VecDeque;
use std::io::Read;
use std::sync::Arc;

/// Default read-chunk size in bytes.
const DEFAULT_CHUNK: usize = 8 * 1024;

/// An iterator of SAX events pulled from a byte stream.
///
/// The iterator is fused around errors: after yielding `Err(_)` once it
/// yields `None` forever. `EndDocument` is emitted when the underlying
/// reader reaches EOF and the document is complete.
#[derive(Debug)]
pub struct EventIter<R: Read> {
    reader: R,
    parser: StreamingParser,
    pending: VecDeque<(Event, Span)>,
    /// Reused read buffer (allocated once, not per refill).
    chunk: Vec<u8>,
    /// A parse/read error waiting to be yielded once `pending` drains:
    /// events completed before the fault are delivered first, so the
    /// prefix a consumer sees does not depend on the chunk size.
    error: Option<ParseError>,
    eof: bool,
    failed: bool,
}

impl<R: Read> EventIter<R> {
    /// Wraps a reader with the default chunk size.
    pub fn new(reader: R) -> EventIter<R> {
        EventIter::with_chunk_size(reader, DEFAULT_CHUNK)
    }

    /// Wraps a reader, reading `chunk_size` bytes at a time (minimum 4,
    /// so a UTF-8 scalar always fits).
    pub fn with_chunk_size(reader: R, chunk_size: usize) -> EventIter<R> {
        EventIter {
            reader,
            parser: StreamingParser::new(),
            pending: VecDeque::new(),
            chunk: vec![0u8; chunk_size.max(4)],
            error: None,
            eof: false,
            failed: false,
        }
    }

    /// Keeps whitespace-only text nodes (dropped by default, matching
    /// [`crate::parse`]).
    pub fn keep_whitespace(mut self) -> EventIter<R> {
        self.parser = self.parser.keep_whitespace();
        self
    }

    /// Pulls the next event together with its source byte [`Span`].
    ///
    /// Spans are stream offsets: chunk boundaries never shift them, so
    /// a consumer can seek back into the original byte source (or slice
    /// an in-memory document) to recover the matched region.
    pub fn next_spanned(&mut self) -> Option<Result<(Event, Span), ParseError>> {
        if self.failed {
            return None;
        }
        if self.pending.is_empty() && self.error.is_none() {
            if let Err(e) = self.pump() {
                self.error = Some(e);
            }
        }
        if let Some(item) = self.pending.pop_front() {
            return Some(Ok(item));
        }
        if let Some(e) = self.error.take() {
            self.failed = true;
            return Some(Err(e));
        }
        None
    }

    /// Adapts this iterator to yield `(Event, Span)` pairs — the form
    /// the engine's selection mode consumes.
    pub fn spanned(self) -> SpannedEvents<R> {
        SpannedEvents(self)
    }

    /// Reads until at least one event is queued (or the stream ends).
    /// A read boundary inside a UTF-8 scalar is the parser's business
    /// ([`StreamingParser::feed_interned_bytes`] carries it).
    fn pump(&mut self) -> Result<(), ParseError> {
        let EventIter {
            reader,
            parser,
            pending,
            chunk,
            eof,
            ..
        } = self;
        let symbols = Arc::clone(parser.symbols());
        while pending.is_empty() && !*eof {
            let n = crate::source::read_some(reader, chunk, parser.fed())?;
            let mut queue = |ev: SymEvent<'_>, span: Span| {
                pending.push_back((ev.to_owned(&symbols), span));
            };
            if n == 0 {
                *eof = true;
                parser.finish_interned(&mut queue)?;
            } else {
                parser.feed_interned_bytes(&chunk[..n], &mut queue)?;
            }
        }
        Ok(())
    }
}

impl<R: Read> Iterator for EventIter<R> {
    type Item = Result<Event, ParseError>;

    fn next(&mut self) -> Option<Result<Event, ParseError>> {
        Some(self.next_spanned()?.map(|(event, _span)| event))
    }
}

/// [`EventIter`] adapted to yield `(Event, Span)` pairs, from
/// [`EventIter::spanned`]. Fused around errors, like the plain iterator.
#[derive(Debug)]
pub struct SpannedEvents<R: Read>(EventIter<R>);

impl<R: Read> SpannedEvents<R> {
    /// Returns the underlying event iterator.
    pub fn into_inner(self) -> EventIter<R> {
        self.0
    }
}

impl<R: Read> Iterator for SpannedEvents<R> {
    type Item = Result<(Event, Span), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_spanned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::io::{Cursor, Read};

    #[test]
    fn yields_same_events_as_batch_parser() {
        let xml = r#"<a id="1"><b>x &amp; y</b><!-- note --><c/>tail</a>"#;
        for chunk in [1usize, 2, 3, 5, 7, 64, 8192] {
            let events: Vec<Event> = EventIter::with_chunk_size(Cursor::new(xml.as_bytes()), chunk)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(events, parse(xml).unwrap(), "chunk size {chunk}");
        }
    }

    #[test]
    fn multibyte_utf8_split_across_chunks() {
        let xml = "<a>héllo • wörld</a>";
        for chunk in 1..=6usize {
            let events: Vec<Event> = EventIter::with_chunk_size(Cursor::new(xml.as_bytes()), chunk)
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(events, parse(xml).unwrap(), "chunk size {chunk}");
        }
    }

    #[test]
    fn error_then_fused() {
        let mut it = EventIter::new(Cursor::new(b"<a><b></a>".as_ref()));
        let mut saw_err = false;
        for item in it.by_ref() {
            if item.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn events_before_an_error_are_yielded_regardless_of_chunk_size() {
        // `<a><b/><b></a>`: the first three element events are valid; the
        // mismatched end tag then faults. Every chunk size must deliver
        // the same valid prefix before the single Err.
        let bad = b"<a><b/><b></a>";
        let mut expected: Option<Vec<Event>> = None;
        for chunk in [1usize, 3, 8192] {
            let mut events = Vec::new();
            let mut errors = 0;
            for item in EventIter::with_chunk_size(Cursor::new(bad.as_ref()), chunk) {
                match item {
                    Ok(e) => events.push(e),
                    Err(_) => errors += 1,
                }
            }
            assert_eq!(errors, 1, "chunk size {chunk}");
            assert!(
                events.contains(&Event::start("b")),
                "valid prefix lost at chunk size {chunk}: {events:?}"
            );
            match &expected {
                None => expected = Some(events),
                Some(prev) => assert_eq!(&events, prev, "prefix differs at chunk size {chunk}"),
            }
        }
    }

    #[test]
    fn truncated_document_errors_at_eof() {
        let items: Vec<_> = EventIter::new(Cursor::new(b"<a><b>".as_ref())).collect();
        assert!(items.last().unwrap().is_err());
    }

    #[test]
    fn invalid_utf8_is_reported() {
        let bytes = b"<a>\xFF</a>";
        let items: Vec<_> = EventIter::new(Cursor::new(bytes.as_ref())).collect();
        assert!(items.iter().any(|i| i.is_err()));
    }

    #[test]
    fn constant_queue_memory_on_large_documents() {
        // The pull loop never holds more than one chunk's worth of events:
        // the queue drains fully between reads.
        let body: String = (0..5_000).map(|i| format!("<i>{i}</i>")).collect();
        let xml = format!("<r>{body}</r>");
        let mut it = EventIter::with_chunk_size(Cursor::new(xml.as_bytes()), 64);
        let mut count = 0usize;
        let mut max_queue = 0usize;
        while let Some(item) = it.next() {
            item.unwrap();
            count += 1;
            max_queue = max_queue.max(it.pending.len());
        }
        assert_eq!(count, 2 + 2 + 2 * 5_000 + 5_000); // docs + root + elements + texts
        assert!(max_queue < 64, "queue stayed chunk-bounded: {max_queue}");
    }

    #[test]
    fn spans_match_the_batch_parser_at_every_chunk_size() {
        let xml = r#"<a id="1"><b>x &amp; y</b><c/>tail</a>"#;
        let expected = crate::parser::parse_spanned(xml).unwrap();
        for chunk in [1usize, 2, 3, 5, 7, 64, 8192] {
            let got: Vec<(Event, crate::span::Span)> =
                EventIter::with_chunk_size(Cursor::new(xml.as_bytes()), chunk)
                    .spanned()
                    .collect::<Result<_, _>>()
                    .unwrap();
            assert_eq!(got, expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn spans_survive_multibyte_chunk_splits() {
        // Offsets are byte offsets even when UTF-8 scalars straddle
        // chunk boundaries and are carried between reads.
        let xml = "<a>héllo</a>";
        for chunk in 1..=4usize {
            let got: Vec<(Event, crate::span::Span)> =
                EventIter::with_chunk_size(Cursor::new(xml.as_bytes()), chunk)
                    .spanned()
                    .collect::<Result<_, _>>()
                    .unwrap();
            for (event, span) in &got {
                if let Event::Text { content } = event {
                    assert_eq!(span.slice(xml), Some(content.as_str()), "chunk {chunk}");
                }
            }
            assert_eq!(got, crate::parser::parse_spanned(xml).unwrap());
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        struct Flaky {
            data: &'static [u8],
            pos: usize,
            hiccup: bool,
        }
        impl Read for Flaky {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if !self.hiccup {
                    self.hiccup = true;
                    return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
                }
                self.hiccup = false;
                let n = (self.data.len() - self.pos).min(out.len()).min(3);
                out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let xml = "<a><b>6</b></a>";
        let flaky = Flaky {
            data: xml.as_bytes(),
            pos: 0,
            hiccup: false,
        };
        let events: Vec<Event> = EventIter::new(flaky).collect::<Result<_, _>>().unwrap();
        assert_eq!(events, parse(xml).unwrap());
    }

    #[test]
    fn keep_whitespace_mode() {
        let xml = "<a> <b/></a>";
        let with_ws: Vec<Event> = EventIter::new(Cursor::new(xml.as_bytes()))
            .keep_whitespace()
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(with_ws
            .iter()
            .any(|e| matches!(e, Event::Text { content } if content == " ")));
        let without: Vec<Event> = EventIter::new(Cursor::new(xml.as_bytes()))
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(!without.iter().any(|e| matches!(e, Event::Text { .. })));
    }
}
