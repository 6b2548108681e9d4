//! Batch ≡ per-event differential: `drive_batched` only materializes
//! the stream `drive` hands over event by event, so across every
//! frontend (XML, HTML, JSON, NDJSON) and every read-chunk geometry the
//! two drivers must yield the identical event stream — same events,
//! same spans — as per-event feed + finish, and the banks' batch walkers
//! (`MultiFilter::process_batch_to`, `IndexedBank::process_batch_to`,
//! `StreamFilter::process_batch_to`) must produce identical verdicts,
//! match streams, and space statistics to per-event dispatch —
//! including when a decided bank short-circuits mid-batch. The
//! session's per-event drive keeps the error contract with no batch cut
//! to hide behind: the matches of the events completed before a fault,
//! the positioned error, a reusable session.
//!
//! Case counts honor `FX_PROPTEST_CASES` (CI pins a small count; local
//! runs omit it to crank coverage).

use frontier_xpath::filter::{IndexedBank, MultiFilter, StreamFilter};
use frontier_xpath::html::HtmlParser;
use frontier_xpath::json::{JsonParser, NdjsonParser};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    html_soup_document, json_record, random_document, HtmlSoupConfig, JsonRecordsConfig,
    RandomDocConfig,
};
use frontier_xpath::xml::{
    AttrBuf, EventBatch, Frontend, Grammar, ParseError, Span as XSpan, StreamingParser, SymEvent,
    Symbols,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use std::sync::Arc;

mod common;
use common::{fx_cases, session_shapes};

/// A reader that hands out pseudo-random chunk sizes (1..=max), so the
/// batched drivers see every flavor of token-straddling read boundary.
struct ChunkyReader<'a> {
    data: &'a [u8],
    pos: usize,
    rng: SmallRng,
    max: usize,
}

impl<'a> ChunkyReader<'a> {
    fn new(data: &'a [u8], seed: u64, max: usize) -> ChunkyReader<'a> {
        ChunkyReader {
            data,
            pos: 0,
            rng: SmallRng::seed_from_u64(seed),
            max: max.max(1),
        }
    }
}

impl Read for ChunkyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let want = self.rng.gen_range(1..=self.max);
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The per-event reference leg: `reader`'s chunks fed one by one, then
/// finish — no batch anywhere on the path.
fn feed_and_finish<G: Grammar>(
    parser: &mut Frontend<G>,
    mut reader: impl Read,
    emit: &mut dyn FnMut(SymEvent<'_>, XSpan),
) -> Result<(), ParseError> {
    let mut chunk = [0u8; 64];
    loop {
        match reader.read(&mut chunk).unwrap() {
            0 => return parser.finish_interned(emit),
            n => parser.feed_interned_bytes(&chunk[..n], emit)?,
        }
    }
}

/// The owned `(event, span)` stream of [`feed_and_finish`].
fn per_event_stream<G: Grammar>(
    parser: &mut Frontend<G>,
    reader: impl Read,
) -> Vec<(Event, XSpan)> {
    let symbols = Arc::clone(parser.symbols());
    let mut out = Vec::new();
    feed_and_finish(parser, reader, &mut |ev, span| {
        out.push((ev.to_owned(&symbols), span))
    })
    .unwrap();
    out
}

/// Owned `(event, span)` stream of a batched drive, via replay.
fn batched_stream(
    source: &mut dyn EventSource,
    symbols: &Arc<Symbols>,
    data: &[u8],
    chunk_seed: u64,
) -> Vec<(Event, XSpan)> {
    let mut out = Vec::new();
    let mut scratch = AttrBuf::new();
    source.reset();
    source
        .drive_batched(
            &mut ChunkyReader::new(data, chunk_seed, 13),
            &mut |batch: &EventBatch| {
                batch.replay(&mut scratch, |ev, span| {
                    out.push((ev.to_owned(symbols), span));
                })
            },
        )
        .unwrap();
    out
}

/// Owned `(event, span)` stream of a per-event drive.
fn collect_into<'a>(
    out: &'a mut Vec<(Event, XSpan)>,
    symbols: &'a Symbols,
) -> impl FnMut(SymEvent<'_>, XSpan) + 'a {
    move |ev, span| out.push((ev.to_owned(symbols), span))
}

/// `drive` — called inherently (monomorphized over the closure) and
/// through `&mut dyn EventSource` (one virtual call per event) — yields
/// the stream of feed + finish and of `drive_batched`, each leg under
/// its own read-chunk geometry.
fn assert_drivers_agree<G: Grammar>(parser: &mut Frontend<G>, data: &[u8], chunk_seed: u64) {
    let symbols = Arc::clone(parser.symbols());
    parser.reset();
    let reference = per_event_stream(parser, ChunkyReader::new(data, chunk_seed, 7));
    let batched = batched_stream(parser, &symbols, data, chunk_seed + 1);
    assert_eq!(batched, reference, "drive_batched, chunk seed {chunk_seed}");

    let mut inherent = Vec::new();
    parser.reset();
    parser
        .drive(
            ChunkyReader::new(data, chunk_seed + 2, 11),
            &mut collect_into(&mut inherent, &symbols),
        )
        .unwrap();
    assert_eq!(inherent, reference, "drive, chunk seed {chunk_seed}");

    let mut through_dyn = Vec::new();
    let source: &mut dyn EventSource = parser;
    source.reset();
    source
        .drive(
            &mut ChunkyReader::new(data, chunk_seed + 3, 5),
            &mut collect_into(&mut through_dyn, &symbols),
        )
        .unwrap();
    assert_eq!(through_dyn, reference, "dyn drive, chunk seed {chunk_seed}");
}

/// XML per-event reference vs the batched drive, across chunk cuts.
#[test]
fn xml_batched_drive_matches_per_event_drive() {
    let mut rng = SmallRng::seed_from_u64(0xBA7C);
    let cfg = RandomDocConfig::default();
    for case in 0..24u64 {
        let xml = random_document(&mut rng, &cfg).to_xml();
        let mut parser = StreamingParser::new();
        let symbols = Arc::clone(parser.symbols());
        let reference = per_event_stream(&mut parser, ChunkyReader::new(xml.as_bytes(), case, 7));
        for chunk_seed in [case, case + 1000] {
            let got = batched_stream(&mut parser, &symbols, xml.as_bytes(), chunk_seed);
            assert_eq!(got, reference, "xml case {case}, chunk seed {chunk_seed}");
        }
    }
}

/// HTML and JSON frontends: per-event feed + finish vs `drive_batched`.
#[test]
fn html_and_json_batched_drives_match_per_event() {
    let mut rng = SmallRng::seed_from_u64(0x50FA);
    for case in 0..16u64 {
        let html = html_soup_document(&mut rng, &HtmlSoupConfig::default()).html;
        let mut hp = HtmlParser::new();
        let hsyms = Arc::clone(hp.symbols());
        let reference = per_event_stream(&mut hp, ChunkyReader::new(html.as_bytes(), case, 5));
        let got = batched_stream(&mut hp, &hsyms, html.as_bytes(), case + 7);
        assert_eq!(got, reference, "html case {case}");

        let json = json_record(&mut rng, &JsonRecordsConfig::default()).json;
        let mut jp = JsonParser::new();
        let jsyms = Arc::clone(jp.symbols());
        let reference = per_event_stream(&mut jp, ChunkyReader::new(json.as_bytes(), case, 5));
        let got = batched_stream(&mut jp, &jsyms, json.as_bytes(), case + 7);
        assert_eq!(got, reference, "json case {case}");
    }
}

/// NDJSON: the batched record-sequence drive equals the concatenation
/// of per-record parses, at every chunk geometry (record boundaries
/// land mid-chunk, chunk boundaries land mid-record).
#[test]
fn ndjson_batched_drive_matches_per_record_reference() {
    let mut rng = SmallRng::seed_from_u64(0x0D5A);
    let cfg = JsonRecordsConfig::default();
    for case in 0..12u64 {
        // The generator's messy whitespace can include raw newlines,
        // which NDJSON framing forbids mid-record — flatten them to
        // spaces (same byte count, same token stream).
        let records: Vec<String> = (0..4)
            .map(|_| json_record(&mut rng, &cfg).json.replace('\n', " "))
            .collect();
        let stream = records.join("\n") + "\n";
        let mut reference = Vec::new();
        for r in &records {
            reference.extend(frontier_xpath::json::parse_json(r).unwrap());
        }
        let mut np = NdjsonParser::new();
        let syms = Arc::clone(np.symbols());
        let got: Vec<Event> = batched_stream(&mut np, &syms, stream.as_bytes(), case)
            .into_iter()
            .map(|(ev, _)| ev)
            .collect();
        assert_eq!(got, reference, "ndjson case {case}");
    }
}

/// Queries over the `random_document` alphabet: a mix of
/// early-true-deciding, early-false-deciding (root mismatch), and
/// full-stream shapes.
fn bank_queries() -> Vec<Query> {
    [
        "/a[b]",
        "/a//x",
        "//b[c]/d",
        "/nomatch[z]", // decides FALSE at the first tag unless the root is `nomatch`
        "//e",
        "/b/c",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect()
}

/// Drives `xml` through a cloned pair of banks — one per-event, one
/// batched — and demands identical verdicts, match streams, and
/// per-filter statistics.
fn assert_bank_parity(xml: &str, reporting: bool, chunk_seed: u64) {
    let queries = bank_queries();
    let bank = if reporting {
        let symbols = Arc::new(Symbols::new());
        let compiled: Vec<_> = queries
            .iter()
            .map(|q| {
                frontier_xpath::filter::CompiledQuery::compile_with(q, Arc::clone(&symbols))
                    .unwrap()
            })
            .collect();
        MultiFilter::from_compiled_reporting(compiled).unwrap()
    } else {
        MultiFilter::new(&queries).unwrap()
    };
    let mut per_event = bank.clone();
    let mut batched = bank;

    let mut parser = StreamingParser::with_symbols(Arc::clone(per_event.symbols())).lookup_only();
    let mut ref_matches: Vec<Match> = Vec::new();
    feed_and_finish(
        &mut parser,
        ChunkyReader::new(xml.as_bytes(), chunk_seed, 11),
        &mut |ev, span| {
            per_event.process_sym_to(ev, span, &mut |m: Match| ref_matches.push(m));
        },
    )
    .unwrap();

    parser.reset();
    let mut got_matches: Vec<Match> = Vec::new();
    parser
        .drive_batched(
            ChunkyReader::new(xml.as_bytes(), chunk_seed + 1, 11),
            &mut |batch| {
                batched.process_batch_to(batch, &mut |m: Match| got_matches.push(m));
            },
        )
        .unwrap();

    assert_eq!(batched.results(), per_event.results(), "verdicts diverged");
    assert_eq!(got_matches, ref_matches, "match streams diverged");
    let ref_stats: Vec<(u64, u64)> = per_event
        .stats()
        .iter()
        .map(|s| (s.events, s.max_bits))
        .collect();
    let got_stats: Vec<(u64, u64)> = batched
        .stats()
        .iter()
        .map(|s| (s.events, s.max_bits))
        .collect();
    assert_eq!(got_stats, ref_stats, "space statistics diverged");
    assert_eq!(
        batched.peak_pending_positions(),
        per_event.peak_pending_positions()
    );
}

/// Same for the shared-prefix indexed bank.
fn assert_indexed_parity(xml: &str, chunk_seed: u64) {
    let queries = bank_queries();
    let bank = IndexedBank::new_reporting(&queries).unwrap();
    let mut per_event = bank.clone();
    let mut batched = bank;

    let mut parser = StreamingParser::with_symbols(Arc::clone(per_event.symbols())).lookup_only();
    let mut ref_matches: Vec<Match> = Vec::new();
    feed_and_finish(
        &mut parser,
        ChunkyReader::new(xml.as_bytes(), chunk_seed, 9),
        &mut |ev, span| {
            per_event.process_sym_to(ev, span, &mut |m: Match| ref_matches.push(m));
        },
    )
    .unwrap();

    parser.reset();
    let mut got_matches: Vec<Match> = Vec::new();
    parser
        .drive_batched(
            ChunkyReader::new(xml.as_bytes(), chunk_seed + 1, 9),
            &mut |batch| {
                batched.process_batch_to(batch, &mut |m: Match| got_matches.push(m));
            },
        )
        .unwrap();

    assert_eq!(batched.results(), per_event.results());
    assert_eq!(got_matches, ref_matches);
    assert_eq!(batched.total_max_bits(), per_event.total_max_bits());
}

/// A bank that fully decides on the very first tag (every query's root
/// step mismatches) must short-circuit the rest of the batch — and
/// every later batch — with verdicts and statistics identical to the
/// per-event path, which stops feeding filters event-by-event.
#[test]
fn decided_bank_short_circuits_mid_batch_with_identical_results() {
    // >BATCH_EVENTS events so the document spans several batches.
    let body = "<b><c>6</c></b>".repeat(800);
    let xml = format!("<zzz>{body}</zzz>");
    assert_bank_parity(&xml, false, 42);

    // And a mid-document accept: every query decided TRUE early.
    let queries: Vec<Query> = ["/r[a]", "/r[b]"]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let bank = MultiFilter::new(&queries).unwrap();
    let mut per_event = bank.clone();
    let mut batched = bank;
    let tail = "<c/>".repeat(3000);
    let xml = format!("<r><a/><b/>{tail}</r>");

    let mut parser = StreamingParser::with_symbols(Arc::clone(per_event.symbols())).lookup_only();
    feed_and_finish(&mut parser, xml.as_bytes(), &mut |ev, span| {
        per_event.process_sym_to(ev, span, &mut |_: Match| {});
    })
    .unwrap();
    parser.reset();
    parser
        .drive_batched(xml.as_bytes(), &mut |batch| {
            batched.process_batch_to(batch, &mut |_: Match| {});
        })
        .unwrap();
    assert_eq!(batched.results(), vec![Some(true), Some(true)]);
    assert_eq!(batched.results(), per_event.results());
    let events: Vec<u64> = batched.stats().iter().map(|s| s.events).collect();
    let ref_events: Vec<u64> = per_event.stats().iter().map(|s| s.events).collect();
    assert_eq!(events, ref_events);
    // The short circuit actually bit: filters saw far fewer events than
    // the document carries.
    assert!(events.iter().all(|&e| e < 100), "{events:?}");
}

/// A tokenizer error must not drop the events completed before it: a
/// document that goes malformed after `n` elements delivers the same
/// match prefix through the batched session drive as through per-event
/// feed + finish — wherever the fault falls relative to the read chunk
/// (2048 of these elements) and the `BATCH_EVENTS` cut.
#[test]
fn matches_before_a_parse_error_do_not_depend_on_the_batch_cut() {
    let query = parse_query("//b").unwrap();
    let engine = Engine::builder()
        .query(query.clone())
        .mode(Mode::Select)
        .build()
        .unwrap();
    let compiled = frontier_xpath::filter::CompiledQuery::compile(&query).unwrap();
    let bank = MultiFilter::from_compiled_reporting(vec![compiled]).unwrap();
    for n in [0usize, 1, 510, 511, 512, 2047, 2048, 2049, 2600, 5000] {
        let xml = format!("<r>{}</x></r>", "<b/>".repeat(n));

        let mut per_event = bank.clone();
        let mut parser =
            StreamingParser::with_symbols(Arc::clone(per_event.symbols())).lookup_only();
        let mut ref_matches: Vec<Match> = Vec::new();
        feed_and_finish(&mut parser, xml.as_bytes(), &mut |ev, span| {
            per_event.process_sym_to(ev, span, &mut |m: Match| ref_matches.push(m));
        })
        .unwrap_err();
        assert_eq!(ref_matches.len(), n);

        let mut sink: Vec<Match> = Vec::new();
        engine
            .session()
            .run_reader_to(xml.as_bytes(), &mut sink)
            .unwrap_err();
        assert_eq!(sink, ref_matches, "fault after {n} elements");
    }
}

/// The single-filter fused surface: `StreamFilter::process_batch_to`
/// (one drain per batch) equals per-event processing with per-event
/// drains — the outbox is FIFO, so even the match order is identical.
#[test]
fn single_filter_batch_drain_matches_per_event() {
    let q = parse_query("//b").unwrap();
    let compiled = frontier_xpath::filter::CompiledQuery::compile(&q).unwrap();
    let symbols = Arc::clone(compiled.symbols());
    let per_event = StreamFilter::from_compiled_reporting(compiled).unwrap();
    let mut batched = per_event.clone();
    let mut per_event = per_event;

    let xml = format!("<a>{}</a>", "<b>6</b>".repeat(50));
    let mut parser = StreamingParser::with_symbols(symbols).lookup_only();
    let mut ref_matches: Vec<Match> = Vec::new();
    feed_and_finish(&mut parser, xml.as_bytes(), &mut |ev, span| {
        per_event.process_sym(ev, span);
        per_event.drain_matches(0, &mut |m: Match| ref_matches.push(m));
    })
    .unwrap();

    parser.reset();
    let mut got_matches: Vec<Match> = Vec::new();
    let mut scratch = AttrBuf::new();
    parser
        .drive_batched(xml.as_bytes(), &mut |batch| {
            batched.process_batch_to(batch, &mut scratch, 0, &mut |m: Match| got_matches.push(m));
        })
        .unwrap();
    assert_eq!(got_matches, ref_matches);
    assert_eq!(batched.result(), per_event.result());
    assert_eq!(batched.stats().events, per_event.stats().events);
}

/// Yields its bytes under a seeded chunk geometry, then — if `breaks` —
/// fails instead of reporting end of input.
struct Cable<'a> {
    bytes: ChunkyReader<'a>,
    breaks: bool,
}

impl Read for Cable<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        match self.bytes.read(out)? {
            0 if self.breaks => Err(std::io::Error::other("cable cut")),
            n => Ok(n),
        }
    }
}

/// The session's drive has no batch between tokenizer and evaluators,
/// so an error has no cut to fall before or after: on every session
/// shape and through each of the drive's three doors (the session's own
/// tokenizer, a handed-in source on the engine's table, one on a
/// foreign table), a document malformed after > 1 024 events and a
/// reader that fails mid-stream deliver exactly the matches of the
/// events completed before the fault, return the positioned error, and
/// leave the session reading the next document like a fresh one.
#[test]
fn a_fault_mid_stream_keeps_the_error_contract_on_every_session_shape() {
    let prefix = "<a><b>9</b></a>".repeat(600);
    let malformed = format!("<r>{prefix}<x><a><b>7</b></a><a></x></r>");
    let cut_short = format!("<r>{prefix}<x><a><b>7</b></a><a><b>");
    let good = "<r><a><b>1</b></a><x><a><b>7</b></a></x></r>";
    for (label, engine) in session_shapes() {
        let selecting = engine.mode() == Mode::Select;
        for (chunk_seed, max_chunk) in [(1u64, 13usize), (2, 700), (3, 1 << 16)] {
            for read_fails in [false, true] {
                let data = if read_fails { &cut_short } else { &malformed }.as_bytes();
                // Reference: the same bytes through a private interning
                // tokenizer, each owned event hand-pushed into a second
                // session until the fault.
                let (mut pushed, mut want): (Session, Vec<Match>) = (engine.session(), Vec::new());
                let mut tokenizer = StreamingParser::new();
                let table = Arc::clone(tokenizer.symbols());
                let mut events = 0usize;
                let mut push = |ev: SymEvent<'_>, span| {
                    events += 1;
                    pushed.push_spanned_to(&ev.to_owned(&table), span, &mut want)
                };
                let want_err = if read_fails {
                    tokenizer.feed_interned_bytes(data, &mut push).unwrap();
                    format!(
                        "XML parse error at byte {}: read error: cable cut",
                        data.len() + 1
                    )
                } else {
                    feed_and_finish(&mut tokenizer, data, &mut push)
                        .unwrap_err()
                        .to_string()
                };
                assert!(events > 3000, "the fault comes late: {events} events");
                // Not vacuous: a selecting shape confirmed matches on
                // both sides of the 1 024-event mark before the fault.
                assert_eq!(want.len() > 600, selecting, "{label}");
                assert_eq!(want.is_empty(), !selecting, "{label}");

                let on_table =
                    || StreamingParser::with_symbols(Arc::clone(engine.symbols())).lookup_only();
                let doors: [(&str, Option<StreamingParser>); 3] = [
                    ("own tokenizer", None),
                    ("source on the engine's table", Some(on_table())),
                    ("source on a foreign table", Some(StreamingParser::new())),
                ];
                for (door, mut source) in doors {
                    let at = format!("{label} / {door} / chunks ≤ {max_chunk} / {want_err}");
                    let mut session = engine.session();
                    let mut run = |reader: &mut dyn Read, sink: &mut Vec<Match>| match &mut source {
                        None => session.run_reader_to(reader, sink),
                        Some(source) => session.run_source_to(source, reader, sink),
                    };
                    let mut got: Vec<Match> = Vec::new();
                    let mut cable = Cable {
                        bytes: ChunkyReader::new(data, chunk_seed, max_chunk),
                        breaks: read_fails,
                    };
                    let err = run(&mut cable, &mut got).unwrap_err();
                    let EngineError::Parse(err) = err else {
                        panic!("{at}: {err}")
                    };
                    assert_eq!(err.to_string(), want_err, "{at}");
                    assert_eq!(got, want, "{at}");

                    let mut next: Vec<Match> = Vec::new();
                    let verdicts = run(&mut good.as_bytes(), &mut next).unwrap();
                    let mut fresh: Vec<Match> = Vec::new();
                    let want_verdicts = engine
                        .session()
                        .run_reader_to(good.as_bytes(), &mut fresh)
                        .unwrap();
                    assert_eq!(verdicts.matched(), want_verdicts.matched(), "{at}");
                    assert_eq!(
                        verdicts.peak_memory_bits(),
                        want_verdicts.peak_memory_bits(),
                        "{at}"
                    );
                    assert_eq!(next, fresh, "{at}");
                    assert_eq!(next.is_empty(), !selecting, "{at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(32)))]

    /// Random documents × random chunk geometries: the multi-filter
    /// bank (filtering and reporting) and the indexed bank agree with
    /// per-event dispatch on verdicts, matches, and statistics.
    #[test]
    fn bank_batch_parity_on_random_documents(seed in 0u64..1_000_000, chunk_seed in 0u64..1_000) {
        let cfg = RandomDocConfig::default();
        let xml = random_document(&mut SmallRng::seed_from_u64(seed), &cfg).to_xml();
        assert_bank_parity(&xml, false, chunk_seed);
        assert_bank_parity(&xml, true, chunk_seed);
        assert_indexed_parity(&xml, chunk_seed);
    }

    /// The two drivers and feed + finish yield one `(event, span)`
    /// stream on every frontend, whatever the read-chunk geometry.
    #[test]
    fn drive_matches_feed_finish_and_drive_batched_on_every_frontend(
        seed in 0u64..1_000_000,
        chunk_seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let xml = random_document(&mut rng, &RandomDocConfig::default()).to_xml();
        assert_drivers_agree(&mut StreamingParser::new(), xml.as_bytes(), chunk_seed);
        let html = html_soup_document(&mut rng, &HtmlSoupConfig::default()).html;
        assert_drivers_agree(&mut HtmlParser::new(), html.as_bytes(), chunk_seed);
        let cfg = JsonRecordsConfig::default();
        let json = json_record(&mut rng, &cfg).json;
        assert_drivers_agree(&mut JsonParser::new(), json.as_bytes(), chunk_seed);
        // NDJSON forbids a raw newline inside a record: flatten the
        // generator's (same byte count, same token stream).
        let records: Vec<String> = (0..3)
            .map(|_| json_record(&mut rng, &cfg).json.replace('\n', " "))
            .collect();
        let ndjson = records.join("\n") + "\n";
        assert_drivers_agree(&mut NdjsonParser::new(), ndjson.as_bytes(), chunk_seed);
    }

    /// Engine-level parity: `run_reader_to` (per-event inside) equals
    /// hand-driven per-event evaluation on verdicts and match streams,
    /// for both the multi-filter bank and the indexed bank.
    #[test]
    fn session_batched_path_matches_per_event_bank(seed in 0u64..1_000_000) {
        let cfg = RandomDocConfig::default();
        let xml = random_document(&mut SmallRng::seed_from_u64(seed), &cfg).to_xml();
        let srcs = ["/a[b]", "//b[c]/d", "//e"];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();

        let engine = Engine::builder()
            .queries(queries.iter().cloned())
            .mode(Mode::Select)
            .build()
            .unwrap();
        let mut sink: Vec<Match> = Vec::new();
        let verdicts = engine
            .session()
            .run_reader_to(ChunkyReader::new(xml.as_bytes(), seed, 13), &mut sink)
            .unwrap();

        let symbols = Arc::new(Symbols::new());
        let compiled: Vec<_> = queries
            .iter()
            .map(|q| {
                frontier_xpath::filter::CompiledQuery::compile_with(q, Arc::clone(&symbols))
                    .unwrap()
            })
            .collect();
        let mut bank = MultiFilter::from_compiled_reporting(compiled).unwrap();
        let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols())).lookup_only();
        let mut ref_matches: Vec<Match> = Vec::new();
        feed_and_finish(&mut parser, xml.as_bytes(), &mut |ev, span| {
            bank.process_sym_to(ev, span, &mut |m: Match| ref_matches.push(m));
        })
        .unwrap();

        let ref_verdicts: Vec<bool> = bank.results().iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(verdicts.matched(), &ref_verdicts[..]);
        prop_assert_eq!(sink, ref_matches);
    }
}
