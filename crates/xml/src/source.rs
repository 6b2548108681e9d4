//! [`EventSource`]: the format-agnostic input seam of the pipeline.
//!
//! The frontier core is already format-agnostic — it consumes interned
//! [`crate::SymEvent`]s, never XML text — so the only XML-specific piece of the
//! whole system is the tokenizer at the front. `EventSource` names that
//! seam: *anything* that can stream one document's worth of interned
//! events from an [`std::io::Read`] can drive an engine session, with the
//! paper's `O(FS(Q)·log d)` frontier-space bound intact (the bound is
//! stated over event streams of nesting depth `d`, not over XML).
//!
//! Implementors today:
//!
//! * [`crate::StreamingParser`] — the XML tokenizer in this crate;
//! * `fx_html::HtmlParser` — a lenient streaming HTML-soup tokenizer;
//! * `fx_json::JsonParser` — a streaming JSON → element-event adapter.
//!
//! All three share the same contract: events are emitted the moment
//! they are complete, names are resolved through the source's
//! [`Symbols`] table (interned, or — the engine's long-lived mode —
//! looked up read-only so unbounded input vocabularies never grow the
//! table), and per-document state resets without dropping warm scratch
//! capacity.

use crate::batch::EventBatch;
use crate::parser::ParseError;
use crate::symbols::Symbols;
use std::io::Read;
use std::sync::Arc;

/// A streaming producer of one document's interned SAX events.
///
/// The engine drives sources through `Session::run_source`; a source is
/// reusable across documents ([`EventSource::reset`] is called before
/// each drive, and implementations keep scratch buffers warm across
/// resets, exactly like [`crate::StreamingParser::reset`]).
pub trait EventSource {
    /// The symbol table this source resolves names against. Syms in the
    /// emitted events are only meaningful to consumers compiled against
    /// the same table.
    fn symbols(&self) -> &Arc<Symbols>;

    /// Resets per-document state so the source can stream another
    /// document, keeping amortizable scratch (buffers, name memos)
    /// warm.
    fn reset(&mut self);

    /// Drops any memoized name-resolution verdicts. Required after the
    /// shared table gains names behind a live lookup-only source (e.g.
    /// a dissemination server compiling a late subscription); a no-op
    /// for sources without a memo.
    fn invalidate_name_memo(&mut self) {}

    /// Streams one whole document from `reader` as **runs of events**:
    /// the source fills a reusable arena-backed [`EventBatch`] (events
    /// plus spans, including the `StartDocument`/`EndDocument` framing)
    /// and hands each full batch to `consume` — one virtual call per
    /// batch instead of per event, which is what the engine's hot path
    /// rides. The batch borrow is valid only for the duration of the
    /// call (the source recycles it); memory stays bounded by the read
    /// chunk, the batch cut ([`crate::BATCH_EVENTS`] /
    /// [`crate::BATCH_BYTES`]), and the largest single input token —
    /// never by document size. Batching is pure control-transfer
    /// amortization: event order, spans, and the paper's frontier-space
    /// bounds are exactly those of the per-event stream.
    fn drive_batched(
        &mut self,
        reader: &mut dyn Read,
        consume: &mut dyn FnMut(&EventBatch),
    ) -> Result<(), ParseError>;
}

/// Length of the longest valid-UTF-8 prefix of `data`, or an error when
/// the invalid bytes cannot be a scalar split across a chunk boundary.
fn utf8_prefix_len(data: &[u8]) -> Result<usize, ParseError> {
    match std::str::from_utf8(data) {
        Ok(_) => Ok(data.len()),
        Err(e) if e.error_len().is_none() => Ok(e.valid_up_to()),
        Err(e) => Err(ParseError {
            message: format!("invalid UTF-8 in input: {e}"),
            line: 0,
            column: 0,
        }),
    }
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
///
/// This is the structural fix for the chunk-boundary UTF-8 bug: every
/// byte-feeding surface (`feed_interned_bytes` on the three parsers,
/// [`drive_utf8_chunks`]) validates UTF-8 **once per chunk** and parks
/// a split trailing scalar here instead of failing — or worse, slicing
/// a `&str` mid-scalar — when a read boundary lands inside a multibyte
/// character.
#[derive(Debug, Clone, Copy, Default)]
pub struct Utf8Carry {
    tail: [u8; 4],
    len: u8,
}

impl Utf8Carry {
    /// An empty carry.
    pub const fn new() -> Utf8Carry {
        Utf8Carry {
            tail: [0; 4],
            len: 0,
        }
    }

    /// True when no partial scalar is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops any pending partial scalar (per-document reset).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Feeds `chunk`: first completes (and emits) the carried scalar if
    /// one is pending, then hands the chunk's maximal valid-UTF-8 run
    /// to `sink`, carrying any new incomplete trailing scalar. Errors
    /// only on bytes that cannot be part of any valid scalar.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        sink: &mut dyn FnMut(&str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.len > 0 {
            let width = scalar_width(self.tail[0]);
            while (self.len as usize) < width {
                let Some((&b, rest)) = chunk.split_first() else {
                    return Ok(());
                };
                self.tail[self.len as usize] = b;
                self.len += 1;
                chunk = rest;
            }
            let scalar = self.tail;
            self.len = 0;
            let scalar = std::str::from_utf8(&scalar[..width]).map_err(|e| ParseError {
                message: format!("invalid UTF-8 in input: {e}"),
                line: 0,
                column: 0,
            })?;
            sink(scalar)?;
        }
        let valid = utf8_prefix_len(chunk)?;
        if valid > 0 {
            sink(std::str::from_utf8(&chunk[..valid]).expect("validated prefix"))?;
        }
        let tail = &chunk[valid..];
        self.tail[..tail.len()].copy_from_slice(tail);
        self.len = tail.len() as u8;
        Ok(())
    }

    /// Ends the stream: a carried scalar that never completed is a
    /// truncation error.
    pub fn finish(&self) -> Result<(), ParseError> {
        if self.len == 0 {
            Ok(())
        } else {
            Err(ParseError {
                message: "invalid UTF-8: truncated scalar at end of input".to_string(),
                line: 0,
                column: 0,
            })
        }
    }
}

/// The shared fixed-size read loop every [`EventSource`] driver uses:
/// reads chunks into `io_chunk` (grown to 8 KiB on first use, reused
/// afterwards) and hands each raw byte run to `feed` — UTF-8 handling
/// is the consumer's business (the parsers' `feed_interned_bytes`
/// carry split scalars via [`Utf8Carry`]). Returns after EOF; the
/// caller then finishes its own token state.
pub fn drive_byte_chunks(
    reader: &mut dyn Read,
    io_chunk: &mut Vec<u8>,
    feed: &mut dyn FnMut(&[u8]) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    if io_chunk.is_empty() {
        io_chunk.resize(8 * 1024, 0);
    }
    loop {
        let n = match reader.read(io_chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(ParseError {
                    message: format!("read error: {e}"),
                    line: 0,
                    column: 0,
                })
            }
        };
        if n == 0 {
            return Ok(());
        }
        feed(&io_chunk[..n])?;
    }
}

/// [`drive_byte_chunks`] decoded to `&str` runs: carries UTF-8 scalars
/// split across read boundaries (at most 3 bytes) and hands each
/// maximal valid-UTF-8 run to `feed`. Kept for callers that want text
/// chunks; the parsers' own drivers feed bytes and carry internally.
pub fn drive_utf8_chunks(
    reader: &mut dyn Read,
    io_chunk: &mut Vec<u8>,
    feed: &mut dyn FnMut(&str) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut carry = Utf8Carry::new();
    drive_byte_chunks(reader, io_chunk, &mut |bytes| carry.feed(bytes, feed))?;
    carry.finish()
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

    #[test]
    fn drive_utf8_chunks_carries_split_scalars() {
        // A 1-byte reader splits every multi-byte scalar.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let text = "héllo • wörld";
        let mut out = String::new();
        let mut chunk = Vec::new();
        drive_utf8_chunks(&mut OneByte(text.as_bytes(), 0), &mut chunk, &mut |s| {
            out.push_str(s);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, text);

        // A truncated scalar at EOF is a proper error.
        let bad = &"é".as_bytes()[..1];
        let mut chunk = Vec::new();
        assert!(drive_utf8_chunks(&mut OneByte(bad, 0), &mut chunk, &mut |_| Ok(())).is_err());
    }

    #[test]
    fn event_source_drive_matches_drive_reader() {
        let xml = "<a attr=\"v\">x &amp; y<b/></a>";
        let mut p1 = StreamingParser::new();
        let s1 = Arc::clone(p1.symbols());
        let mut via_reader: Vec<Event> = Vec::new();
        p1.drive_reader(xml.as_bytes(), &mut |ev, _| {
            via_reader.push(ev.to_owned(&s1));
        })
        .unwrap();
        assert_eq!(drive_owned(&mut StreamingParser::new(), xml), via_reader);
    }
}
