//! Chunk-boundary transparency: every frontend must emit the *same*
//! event stream — names, payloads, and spans bit for bit — no matter
//! where the byte stream is cut. The one byte feed
//! (`Frontend::feed_interned_bytes`, shared by the XML, HTML, JSON and
//! NDJSON grammars) carries a split UTF-8 scalar across chunks, so even
//! a cut in the middle of a multibyte character or an entity reference
//! must neither panic nor perturb the output.
//!
//! Exhaustive tests cut fixture documents at *every* byte offset (and
//! at every fixed chunk size up to a bound); proptests add randomly
//! chosen multi-cut points over randomly assembled documents. One
//! harness, generic over the grammar, serves all four frontends.

use frontier_xpath::html::HtmlGrammar;
use frontier_xpath::json::{JsonGrammar, NdjsonGrammar};
use frontier_xpath::xml::{
    escape_text, Event, Frontend, Grammar, ParseError, Span, SymEvent, XmlGrammar,
};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::fx_cases;

/// One recorded event stream: owned events with their spans.
type Recorded = Vec<(Event, Span)>;

/// Feeds `doc` to a fresh `G` frontend cut at the given (sorted, in
/// range) split offsets, then finishes: the events recorded, and how
/// the stream ended.
fn try_stream<G: Grammar>(doc: &[u8], splits: &[usize]) -> (Recorded, Result<(), ParseError>) {
    let mut parser = Frontend::<G>::new();
    let symbols = Arc::clone(parser.symbols());
    let mut got: Recorded = Vec::new();
    let mut emit = |ev: SymEvent<'_>, span: Span| got.push((ev.to_owned(&symbols), span));
    let ends = splits.iter().copied().chain([doc.len()]);
    let starts = [0].into_iter().chain(splits.iter().copied());
    let result = starts
        .zip(ends)
        .try_for_each(|(at, cut)| parser.feed_interned_bytes(&doc[at..cut], &mut emit))
        .and_then(|()| parser.finish_interned(&mut emit));
    (got, result)
}

/// [`try_stream`] of a document that must parse.
fn stream<G: Grammar>(doc: &[u8], splits: &[usize]) -> Recorded {
    let (got, result) = try_stream::<G>(doc, splits);
    result.unwrap();
    got
}

/// Asserts that cutting `doc` at every single byte offset — including
/// mid-multibyte-character and mid-entity cuts — reproduces the batch
/// (no-cut) stream exactly, then sweeps every fixed chunk size ≤ 16.
fn assert_split_transparent<G: Grammar>(doc: &[u8]) {
    let stream = stream::<G>;
    let batch = stream(doc, &[]);
    assert!(!batch.is_empty(), "fixture produced events");
    for cut in 1..doc.len() {
        let split = stream(doc, &[cut]);
        assert_eq!(
            split,
            batch,
            "single cut at byte {cut} of {} changed the stream",
            doc.len()
        );
    }
    for size in 1..=16usize {
        let cuts: Vec<usize> = (1..doc.len()).filter(|i| i % size == 0).collect();
        let split = stream(doc, &cuts);
        assert_eq!(split, batch, "chunk size {size} changed the stream");
    }
}

/// XML fixture: 2-, 3-, and 4-byte UTF-8 scalars in text and attribute
/// values, plus named and numeric entity references — a cut can land
/// inside any of them.
const XML_DOC: &str = "<r a=\"caf\u{e9} \u{2022} &amp;\">\
  pre &lt;x&gt; &#x1F600; caf\u{e9}\
  <c b=\"&#65;\u{2014}\">\u{1F680} mid &amp;amp; text</c>\
  <d/>tail \u{2022}\u{e9}&quot;\
</r>";

/// HTML fixture: soup recovery plus lenient entities (bare `&`,
/// unknown references, numeric edge cases) around multibyte text.
const HTML_DOC: &str = "<ul class=\"caf\u{e9}\"><li>fish &amp; chips \u{2022}</li>\
<li>\u{1F600} &nbsp;&mdash; &#x48;i &bogus; bare & amp</li>\
<wbr><li>caf\u{e9} &#0; tail</li></ul>";

/// JSON fixture: multibyte scalars and escapes in keys and values — a
/// cut can land inside a `\uXXXX` escape or a multibyte scalar.
const JSON_DOC: &str =
    "{\"caf\u{e9}\": [1, -2.5e3, \"\u{1F680} \\u0041\\n\u{2022}\", true, null], \
\"\u{2014}k\": {\"inner\u{e9}\": \"caf\u{e9}\"}}";

/// NDJSON fixture: records, a blank line, a `\r\n` ending and a final
/// record without a newline — a cut can land on any framing byte.
const NDJSON_DOC: &str = "{\"caf\u{e9}\": [1, \"\u{1F680}\\n\"]}\n\n  \n\
{\"k\": {\"\u{2014}\": null}}\r\n[true, -2.5e3]";

#[test]
fn xml_every_split_point_matches_batch() {
    assert_split_transparent::<XmlGrammar>(XML_DOC.as_bytes());
}

#[test]
fn html_every_split_point_matches_batch() {
    assert_split_transparent::<HtmlGrammar>(HTML_DOC.as_bytes());
}

#[test]
fn json_every_split_point_matches_batch() {
    assert_split_transparent::<JsonGrammar>(JSON_DOC.as_bytes());
}

#[test]
fn ndjson_every_split_point_matches_batch() {
    assert_split_transparent::<NdjsonGrammar>(NDJSON_DOC.as_bytes());
    // Three records, each framed on its own, whatever the cut.
    let docs = stream::<NdjsonGrammar>(NDJSON_DOC.as_bytes(), &[]);
    let starts = docs.iter().filter(|(e, _)| *e == Event::StartDocument);
    assert_eq!(starts.count(), 3);
}

/// A cut inside a multibyte scalar leaves bytes in the carry; feeding
/// the rest later (even one byte at a time) must reassemble the scalar.
#[test]
fn single_byte_chunks_match_batch() {
    fn check<G: Grammar>(doc: &str) {
        let cuts: Vec<usize> = (1..doc.len()).collect();
        assert_eq!(
            stream::<G>(doc.as_bytes(), &cuts),
            stream::<G>(doc.as_bytes(), &[])
        );
    }
    check::<XmlGrammar>(XML_DOC);
    check::<HtmlGrammar>(HTML_DOC);
    check::<JsonGrammar>(JSON_DOC);
    check::<NdjsonGrammar>(NDJSON_DOC);
}

/// A byte-order mark may open an XML stream (XML 1.0 §4.3.3): both XML
/// tokenizers skip exactly one U+FEFF at offset 0 — wherever the three
/// bytes are cut — and agree event for event and span for span, the
/// spans still counting source bytes. Anywhere else a U+FEFF is the
/// character it is.
#[test]
fn a_leading_bom_is_skipped_at_every_cut_by_both_xml_tokenizers() {
    use frontier_xpath::xml::parse_spanned;
    let doc = "\u{feff}<?xml version=\"1.0\"?><a>t\u{feff}</a>";
    let reference = parse_spanned(doc).unwrap();
    let spans: Vec<Span> = reference.iter().map(|&(_, span)| span).collect();
    let (open, text, close) = (Span::new(24, 27), Span::new(27, 31), Span::new(31, 35));
    assert_eq!(spans[1..4], [open, text, close]);
    let text = Event::Text {
        content: "t\u{feff}".into(),
    };
    assert_eq!(reference[2].0, text);
    for cut in 1..doc.len() {
        let streamed = stream::<XmlGrammar>(doc.as_bytes(), &[cut]);
        assert_eq!(streamed, reference, "cut at byte {cut}");
    }
    let bytewise: Vec<usize> = (1..doc.len()).collect();
    assert_eq!(stream::<XmlGrammar>(doc.as_bytes(), &bytewise), reference);

    let bare = parse_spanned("\u{feff}<a/>").unwrap();
    assert_eq!(bare[1].1, Span::new(3, 7));
    assert_eq!(stream::<XmlGrammar>("\u{feff}<a/>".as_bytes(), &[2]), bare);

    for elsewhere in ["\u{feff}\u{feff}<a/>", " \u{feff}<a/>", "<a/>\u{feff}"] {
        parse_spanned(elsewhere).expect_err(elsewhere);
        for cut in 1..elsewhere.len() {
            let (_, result) = try_stream::<XmlGrammar>(elsewhere.as_bytes(), &[cut]);
            result.expect_err(elsewhere);
        }
    }
}

/// The error of a stream that must fail, as `(events before it, 1-based
/// byte position, message)`.
fn failure<G: Grammar>(doc: &[u8], splits: &[usize]) -> (usize, usize, String) {
    let (got, result) = try_stream::<G>(doc, splits);
    let err = result.expect_err("stream must fail");
    assert_eq!(err.line, 0, "streaming errors are byte-positioned: {err}");
    assert!(
        err.to_string()
            .contains(&format!("at byte {}: ", err.column)),
        "{err}"
    );
    (got.len(), err.column, err.message)
}

/// Truncating the stream mid-scalar must surface as a UTF-8 error from
/// `finish_interned`, not a panic or silent acceptance — positioned at
/// the first byte of the scalar that never completed, wherever the
/// stream was cut.
#[test]
fn truncated_multibyte_tail_errors_at_finish() {
    fn check<G: Grammar>(doc: &str, keep: usize) {
        let partial = &doc.as_bytes()[..keep];
        let scalar_start = (0..keep).rev().find(|&i| doc.is_char_boundary(i)).unwrap();
        for cut in 0..=keep {
            let splits: &[usize] = if cut == 0 || cut == keep { &[] } else { &[cut] };
            let (_, at, message) = failure::<G>(partial, splits);
            assert_eq!(at, scalar_start + 1, "cut {cut} of {doc:?}[..{keep}]");
            assert!(message.contains("truncated scalar"), "{message}");
        }
    }
    check::<XmlGrammar>("<r>caf\u{e9}</r>", 7); // "<r>caf" + first byte of é
    check::<HtmlGrammar>("<p>\u{2022}", 4);
    check::<HtmlGrammar>("<p>\u{2022}", 5);
    check::<JsonGrammar>("\"\u{1F600}\"", 3);
    check::<NdjsonGrammar>("{}\n\"\u{1F600}\"", 5);
}

/// Invalid UTF-8 (a lone continuation byte) errors instead of panicking
/// on all four frontends, `at byte N` of the offending byte for every
/// cut — before it, on it, after it — and the events completed before
/// it are emitted first.
#[test]
fn invalid_utf8_errors_not_panics() {
    fn check<G: Grammar>(bad: &[u8], events_before: usize) {
        let at = bad.iter().position(|&b| b == 0x80).unwrap();
        for cut in 0..bad.len() {
            let splits: &[usize] = if cut == 0 { &[] } else { &[cut] };
            let (events, byte, message) = failure::<G>(bad, splits);
            assert_eq!(byte, at + 1, "cut {cut}");
            assert_eq!(events, events_before, "cut {cut}");
            assert!(message.starts_with("invalid UTF-8 in input"), "{message}");
        }
    }
    // StartDocument, <r>, <a>, </a> precede the bad byte.
    check::<XmlGrammar>(b"<r><a/>ok\x80bad</r>", 4);
    check::<HtmlGrammar>(b"<p><br>\x80</p>", 4);
    check::<JsonGrammar>(b"[1, \"\x80\"]", 5);
    // A whole first record (7 events), then the second's StartDocument, <json>.
    check::<NdjsonGrammar>(b"[1]\n[\"\x80\"]", 9);
}

/// A `&str` fed while a split scalar is pending is the same bytes as a
/// byte feed: invalid UTF-8 at the scalar, never reordered text.
#[test]
fn str_feed_after_a_split_scalar_is_an_error() {
    fn check<G: Grammar>(head: &[u8]) {
        let mut parser = Frontend::<G>::new();
        let mut text = String::new();
        let mut emit = |ev: SymEvent<'_>, _: Span| {
            if let SymEvent::Text { content } = ev {
                text.push_str(content);
            }
        };
        parser.feed_interned_bytes(head, &mut emit).unwrap();
        let err = parser
            .feed_interned("z</r>", &mut emit)
            .and_then(|()| parser.finish_interned(&mut emit))
            .unwrap_err();
        assert_eq!((err.line, err.column), (0, head.len()), "{err}");
        assert!(err.message.starts_with("invalid UTF-8"), "{err}");
        assert!(
            !text.contains('z'),
            "text fed after the fault leaked: {text:?}"
        );
    }
    check::<XmlGrammar>(b"<r>caf\xC3"); // first byte of é, then a `&str`
    check::<HtmlGrammar>(b"<r>caf\xC3");
    check::<JsonGrammar>(b"\"caf\xC3");
    check::<NdjsonGrammar>(b"1\n\"caf\xC3");
}

/// Turns a set of raw proptest offsets into sorted, deduped, in-range
/// cut points for a document of `len` bytes.
fn normalize_cuts(raw: &[usize], len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = raw
        .iter()
        .map(|&c| 1 + c % len.max(2).saturating_sub(1))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(64)))]

    /// Random documents (unicode text, entity-bearing), random cut
    /// sets: the XML byte feed is split-transparent.
    #[test]
    fn xml_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600} ]{0,12}",
        attr in "[A-Z\u{e9}\u{2014}]{0,8}",
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!(
            "<r a=\"{}\">{}&amp; &#x1F680;<c>{}</c></r>",
            escape_text(&attr),
            escape_text(&text),
            escape_text(&text),
        );
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(stream::<XmlGrammar>(bytes, &cuts), stream::<XmlGrammar>(bytes, &[]));
    }

    /// Random soup (entities decoded leniently) at random cut sets.
    #[test]
    fn html_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600}& ]{0,12}",
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!("<ul><li>{text}&mdash;&#65;</li><li>{text}</li></ul>");
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(stream::<HtmlGrammar>(bytes, &cuts), stream::<HtmlGrammar>(bytes, &[]));
    }

    /// Random JSON strings (multibyte + escapes) at random cut sets.
    #[test]
    fn json_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600} ]{0,12}",
        n in -1000i64..1000,
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!("{{\"k\u{e9}\": \"{text}\\u0041\", \"n\": {n}}}");
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(stream::<JsonGrammar>(bytes, &cuts), stream::<JsonGrammar>(bytes, &[]));
    }

    /// The same records as an NDJSON stream, at random cut sets.
    #[test]
    fn ndjson_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600} ]{0,12}",
        n in -1000i64..1000,
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!("{{\"k\u{e9}\": \"{text}\\u0041\"}}\n \n{n}\n[\"{text}\"]");
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(stream::<NdjsonGrammar>(bytes, &cuts), stream::<NdjsonGrammar>(bytes, &[]));
    }
}
