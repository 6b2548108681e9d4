//! Interned-path parity: the symbol-interned, zero-copy event hot path
//! (`StreamingParser::feed_interned` → `SymEvent` → `Evaluator::event`) must
//! be observably identical to the owned `Event` path — verdicts, match
//! streams (ordinals *and* spans), and space statistics — on the xmark
//! corpus, the shared-prefix bank workload, and proptest-chosen pairs.

use frontier_xpath::engine::{Engine, IndexPolicy, Match, Mode};
use frontier_xpath::filter::{CompiledQuery, Evaluator, IndexedBank, MultiFilter, StreamFilter};
use frontier_xpath::workloads as wl;
use frontier_xpath::xml::{parse_spanned, Event, Span, StreamingParser, SymEvent, Symbols};
use frontier_xpath::xpath::{parse_query, Query};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

mod common;
use common::{feed, fx_cases};

const QUERIES: &[&str] = &[
    "/site/regions/asia/item",
    "//item[price > 300]",
    "//a[b and c]",
    "/a[c[.//e and f] and b > 5]",
    "//open_auction[bidder]/price",
    "/a/*/b",
    "//a[@k = \"v\"]",
    "//category//name",
];

/// Runs one query over a document both ways — owned events from the
/// reference tokenizer, and parser-interned `SymEvent`s — and checks
/// verdicts and space statistics agree bit for bit.
fn assert_both_paths_agree(q: &Query, xml: &str) {
    let spanned = parse_spanned(xml).expect("well-formed fixture");

    // 1. Owned path.
    let mut owned = StreamFilter::new(q).unwrap();
    for (e, span) in &spanned {
        owned.process_to(e, *span, 0, &mut |_: Match| {});
    }

    // 2. Parser-interned path: compile against the parser's table, feed
    //    chunked so token reassembly is exercised too.
    let symbols = Arc::new(Symbols::new());
    let compiled = CompiledQuery::compile_with(q, Arc::clone(&symbols)).unwrap();
    let mut interned = StreamFilter::from_compiled(compiled);
    let mut parser = StreamingParser::with_symbols(symbols);
    for piece in xml.as_bytes().chunks(13) {
        parser
            .feed_interned_bytes(piece, &mut |ev, span| {
                interned.event(ev, span, &mut |_: Match| {})
            })
            .unwrap();
    }
    parser
        .finish_interned(&mut |ev, span| interned.event(ev, span, &mut |_: Match| {}))
        .unwrap();

    assert_eq!(owned.result(), interned.result(), "{xml}");
    assert_eq!(
        owned.stats(),
        interned.stats(),
        "interned stats parity on {xml}"
    );
}

#[test]
fn single_filter_paths_agree_on_xmark_corpus() {
    let mut rng = SmallRng::seed_from_u64(0x1A7E);
    for round in 0..6 {
        let d = wl::auction_site(
            &mut rng,
            &wl::XmarkConfig {
                items: 4 + round,
                auctions: 3,
                people: 2,
                category_depth: 3,
            },
        );
        let xml = d.to_xml();
        for src in QUERIES {
            assert_both_paths_agree(&parse_query(src).unwrap(), &xml);
        }
    }
}

/// The engine's zero-copy reader path (banks fed `SymEvent`s straight
/// from the parser) must deliver the same verdicts, ordinals and byte
/// spans as pushing owned events by hand.
fn assert_engine_paths_agree(srcs: &[&str], xml: &str, policy: IndexPolicy) {
    let build = |mode: Mode| {
        Engine::builder()
            .queries(srcs.iter().map(|s| parse_query(s).unwrap()))
            .mode(mode)
            .index(policy)
            .build()
            .unwrap()
    };

    // Filtering: reader path vs hand-pushed owned events.
    let engine = build(Mode::Filter);
    let via_reader = engine.run_str(xml).unwrap();
    let mut session = engine.session();
    for (e, _) in parse_spanned(xml).unwrap() {
        session.push(&e);
    }
    let via_push = session.finish().unwrap();
    assert_eq!(via_reader.matched(), via_push.matched(), "{xml}");

    // Selection: full outcome parity, spans included.
    let select = build(Mode::Select);
    let via_reader = select.select_str(xml).unwrap();
    let mut session = select.session();
    let mut pushed: Vec<Match> = Vec::new();
    for (e, span) in parse_spanned(xml).unwrap() {
        session.push_spanned_to(&e, span, &mut pushed);
    }
    session.finish().unwrap();
    let mut from_reader: Vec<(usize, u64, Span)> = via_reader
        .all_matches()
        .map(|m| (m.query, m.ordinal, m.span))
        .collect();
    let mut from_push: Vec<(usize, u64, Span)> = pushed
        .iter()
        .map(|m| (m.query, m.ordinal, m.span))
        .collect();
    from_reader.sort_unstable();
    from_push.sort_unstable();
    assert_eq!(from_reader, from_push, "match streams diverge on {xml}");
    for (_, _, span) in &from_reader {
        assert!(
            span.slice(xml).is_some_and(|t| t.starts_with('<')),
            "reader-path span must slice back to a tag: {span:?}"
        );
    }
}

#[test]
fn engine_reader_path_equals_owned_push_on_bank_workload() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let bank = wl::random_shared_prefix_bank(
        &mut rng,
        &wl::SharedPrefixBankConfig {
            families: 6,
            queries_per_family: 4,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let srcs: Vec<String> = bank
        .queries
        .iter()
        .map(frontier_xpath::xpath::to_xpath)
        .collect();
    let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    for active in [vec![0usize], vec![1, 3], vec![0, 2, 4, 5]] {
        let xml = bank.document(&active, 3, 5);
        assert_engine_paths_agree(&srcs, &xml, IndexPolicy::None);
        assert_engine_paths_agree(&srcs, &xml, IndexPolicy::SharedPrefix);
    }
}

/// Bank-level parity on the same workload: `MultiFilter` and
/// `IndexedBank` fed parser-interned events against their own shared
/// tables must reproduce the owned-event verdicts exactly.
#[test]
fn banks_interned_feed_equals_owned_feed() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    let bank = wl::random_shared_prefix_bank(
        &mut rng,
        &wl::SharedPrefixBankConfig {
            families: 5,
            queries_per_family: 5,
            prefix_depth: 2,
            cross_family_tails: true,
        },
    );
    for active in [vec![0usize, 1], vec![2, 4]] {
        let xml = bank.document(&active, 2, 4);
        let events: Vec<Event> = frontier_xpath::xml::parse(&xml).unwrap();

        let mut mf_owned = MultiFilter::new(&bank.queries).unwrap();
        let mut ib_owned = IndexedBank::new(&bank.queries).unwrap();
        feed(&mut mf_owned, &events);
        feed(&mut ib_owned, &events);

        let mut mf_sym = MultiFilter::new(&bank.queries).unwrap();
        let mut parser = StreamingParser::with_symbols(Arc::clone(mf_sym.symbols()));
        parser
            .feed_interned(&xml, &mut |ev, span| {
                mf_sym.event(ev, span, &mut |_: Match| {})
            })
            .unwrap();
        parser
            .finish_interned(&mut |ev, span| mf_sym.event(ev, span, &mut |_: Match| {}))
            .unwrap();

        let mut ib_sym = IndexedBank::new(&bank.queries).unwrap();
        let mut parser = StreamingParser::with_symbols(Arc::clone(ib_sym.symbols()));
        parser
            .feed_interned(&xml, &mut |ev, span| {
                ib_sym.event(ev, span, &mut |_: Match| {})
            })
            .unwrap();
        parser
            .finish_interned(&mut |ev, span| ib_sym.event(ev, span, &mut |_: Match| {}))
            .unwrap();

        assert_eq!(mf_owned.results(), mf_sym.results(), "{xml}");
        assert_eq!(ib_owned.results(), ib_sym.results(), "{xml}");
        assert_eq!(mf_owned.results(), ib_owned.results(), "{xml}");
    }
}

/// The `SymEvent` ↔ owned `Event` conversion is lossless in both
/// directions through the parser's table.
#[test]
fn interned_events_round_trip_to_owned() {
    let xml = r#"<a id="1" k="x &amp; y"><b>6 &lt; 7</b><![CDATA[q]]><c/>t</a>"#;
    let expected = frontier_xpath::xml::parse(xml).unwrap();
    let mut parser = StreamingParser::new();
    let symbols = Arc::clone(parser.symbols());
    let mut got: Vec<Event> = Vec::new();
    parser
        .feed_interned(xml, &mut |ev, _| got.push(ev.to_owned(&symbols)))
        .unwrap();
    parser
        .finish_interned(&mut |ev, _| got.push(ev.to_owned(&symbols)))
        .unwrap();
    assert_eq!(got, expected);
}

/// The one place the reference tokenizer (`parse`) and the streaming
/// one differ observably: text split by a comment or a CDATA section is
/// one coalesced `Text` from the former, a run of them from the latter.
/// The run concatenates to the coalesced value, and no query can tell
/// the two apart — the filter buffers a string value across events.
#[test]
fn comment_and_cdata_split_text_concatenates_to_the_reference() {
    let xml = "<r><a>x<!--c-->y<![CDATA[z]]>w</a><a>v</a></r>";
    let reference = frontier_xpath::xml::parse(xml).unwrap();
    let engine = Engine::builder()
        .query_str("/r[a = \"xyzw\"]")
        .build()
        .unwrap();
    let dom = frontier_xpath::dom::Document::from_xml(xml).unwrap();
    let want = frontier_xpath::eval::bool_eval(&engine.queries()[0], &dom).unwrap();
    assert!(want, "the reference evaluator sees the coalesced value");

    for chunk in [1usize, 2, 5, xml.len()] {
        let mut parser = StreamingParser::new();
        let symbols = Arc::clone(parser.symbols());
        // Merge consecutive `Text` events; everything else verbatim.
        let mut merged: Vec<Event> = Vec::new();
        let mut texts = 0;
        let mut emit = |ev: SymEvent<'_>, _: Span| match (ev.to_owned(&symbols), merged.last_mut())
        {
            (Event::Text { content }, Some(Event::Text { content: run })) => {
                texts += 1;
                run.push_str(&content);
            }
            (event, _) => {
                texts += usize::from(matches!(event, Event::Text { .. }));
                merged.push(event);
            }
        };
        for piece in xml.as_bytes().chunks(chunk) {
            parser.feed_interned_bytes(piece, &mut emit).unwrap();
        }
        parser.finish_interned(&mut emit).unwrap();
        assert_eq!(merged, reference, "chunk {chunk}");
        assert_eq!(texts, 5, "x, y, z, w and v arrive as separate events");
    }
    assert_eq!(engine.run_str(xml).unwrap().matched(), &[want]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(64)))]

    /// Random (query, document) pairs: both single-filter paths agree
    /// on verdicts and statistics.
    #[test]
    fn paths_agree_on_proptest_pairs(qi in 0..QUERIES.len(), seed in 0u64..100_000) {
        let q = parse_query(QUERIES[qi]).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = wl::random_document(&mut rng, &wl::RandomDocConfig::default());
        assert_both_paths_agree(&q, &d.to_xml());
    }

    /// Random chunk sizes: the interned parser emits the same events as
    /// the owned surface regardless of how the bytes arrive.
    #[test]
    fn interned_chunking_is_transparent(seed in 0u64..50_000, chunk in 1usize..24) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = wl::random_document(&mut rng, &wl::RandomDocConfig::default());
        let xml = d.to_xml();
        let expected = frontier_xpath::xml::parse(&xml).unwrap();
        let mut parser = StreamingParser::new();
        let symbols = Arc::clone(parser.symbols());
        let mut got: Vec<Event> = Vec::new();
        for piece in xml.as_bytes().chunks(chunk) {
            parser
                .feed_interned_bytes(piece, &mut |ev, _| got.push(ev.to_owned(&symbols)))
                .unwrap();
        }
        parser.finish_interned(&mut |ev, _| got.push(ev.to_owned(&symbols))).unwrap();
        prop_assert_eq!(got, expected);
    }
}

/// `SymEvent` equality is name-identity: two parsers sharing one table
/// agree on syms, separate tables do not (guard against accidental
/// cross-table compares in future code).
#[test]
fn sym_identity_is_per_table() {
    let shared = Arc::new(Symbols::new());
    let sym_of = |table: &Arc<Symbols>, xml: &str| {
        let mut p = StreamingParser::with_symbols(Arc::clone(table));
        let mut first = None;
        p.feed_interned(xml, &mut |ev, _| {
            if let SymEvent::StartElement { name, .. } = ev {
                first.get_or_insert(name);
            }
        })
        .unwrap();
        first.unwrap()
    };
    assert_eq!(
        sym_of(&shared, "<item/>"),
        sym_of(&shared, "<item><x/></item>")
    );
    // A fresh table issues ids independently; only the owned string
    // forms are comparable across tables.
    let fresh = Arc::new(Symbols::new());
    fresh.intern("pad");
    assert_ne!(sym_of(&fresh, "<item/>"), sym_of(&shared, "<item/>"));
}
