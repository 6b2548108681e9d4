//! Dispatch parity: `fx_core::MultiFilter` delivers an event only to the
//! filters its name (or their buffering) concerns and brings a
//! passed-over filter up to date just before its next delivery. It must
//! stay observationally **equal to n solo `StreamFilter`s each fed every
//! event**: verdicts, the match *sequence* (order included), peak
//! pending positions and the whole `SpaceStats` struct — on random
//! documents × random supported queries in banks of 1 to 300, on the
//! XMark, HTML-soup and JSON corpora through their frontends, and on the
//! document shape that breaks a wrong high-water mark. A deterministic
//! work gate pins how much of the full fan-out is left, and malformed
//! streams must neither panic nor leak into the next document.

use frontier_xpath::filter::{CompiledQuery, Match, MultiFilter, StreamFilter};
use frontier_xpath::html::HtmlParser;
use frontier_xpath::json::JsonParser;
use frontier_xpath::lowerbounds::{depth_bound, frontier_bound};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    auction_site, html_soup_corpus, json_queries, json_records, soup_queries, standing_queries,
    HtmlSoupConfig, JsonRecordsConfig, XmarkConfig,
};
use frontier_xpath::xml::{StreamingParser, SymEvent, Symbols};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

mod common;
use common::{feed_to, fx_cases};

/// The bank under test beside its reference: one solo filter per query,
/// fed **every** event until — exactly like a bank member — it decides
/// its verdict early.
struct Lanes {
    bank: MultiFilter,
    solos: Vec<StreamFilter>,
    /// A solo's verdict reached before `EndDocument`.
    early: Vec<Option<bool>>,
    got: Vec<Match>,
    want: Vec<Match>,
}

impl Lanes {
    /// Compiles `queries` against one fresh table — the bank's, which
    /// the frontends resolve names in — in filtering or reporting mode.
    fn new(queries: &[Query], reporting: bool) -> Lanes {
        let symbols = Arc::new(Symbols::new());
        let compiled: Vec<Arc<CompiledQuery>> = queries
            .iter()
            .map(|q| Arc::new(CompiledQuery::compile_with(q, Arc::clone(&symbols)).unwrap()))
            .collect();
        let shared = || compiled.iter().map(Arc::clone);
        let (bank, solos) = if reporting {
            (
                MultiFilter::from_shared_reporting(shared()).unwrap(),
                shared()
                    .map(|c| StreamFilter::from_shared_reporting(c).unwrap())
                    .collect(),
            )
        } else {
            (
                MultiFilter::from_shared(shared()),
                shared().map(StreamFilter::from_shared).collect(),
            )
        };
        Lanes {
            bank,
            solos,
            early: vec![None; queries.len()],
            got: Vec::new(),
            want: Vec::new(),
        }
    }

    fn feed(&mut self, ev: SymEvent<'_>, span: Span) {
        self.bank.process_sym_to(ev, span, &mut self.got);
        if matches!(ev, SymEvent::StartDocument) {
            self.early.fill(None);
        }
        // The order a full fan-out delivers matches in: per event, by
        // ascending query index.
        for (i, solo) in self.solos.iter_mut().enumerate() {
            if self.early[i].is_some() {
                continue;
            }
            solo.process_sym_to(ev, span, i, &mut self.want);
            if !matches!(ev, SymEvent::EndDocument) {
                self.early[i] = solo.decided();
            }
        }
    }

    /// After `EndDocument`: everything observable agrees.
    fn check(&mut self, what: &str) {
        assert_eq!(self.got, self.want, "match sequence on {what}");
        let verdicts: Vec<Option<bool>> = self
            .solos
            .iter()
            .zip(&self.early)
            .map(|(s, early)| early.or(s.result()))
            .collect();
        assert!(verdicts.iter().all(Option::is_some), "document ended");
        assert_eq!(self.bank.results(), verdicts, "verdicts on {what}");
        // A filter that decided early stopped there on both sides, so
        // even its statistics agree — as of its decision point.
        for (i, solo) in self.solos.iter().enumerate() {
            assert_eq!(
                self.bank.stats()[i],
                solo.stats(),
                "space statistics of query #{i} on {what}"
            );
        }
        let pending: Vec<usize> = self
            .solos
            .iter()
            .map(StreamFilter::peak_pending_positions)
            .collect();
        assert_eq!(
            self.bank.peak_pending_positions(),
            pending,
            "peak pending positions on {what}"
        );
        self.got.clear();
        self.want.clear();
    }

    /// A lookup-only XML tokenizer over the bank's table: names outside
    /// the query vocabulary arrive as `Sym::UNKNOWN`.
    fn xml_parser(&self) -> StreamingParser {
        StreamingParser::with_symbols(Arc::clone(self.bank.symbols())).lookup_only()
    }

    /// One XML document through [`Lanes::xml_parser`].
    fn xml(&mut self, parser: &mut StreamingParser, xml: &str) {
        parser.reset();
        let mut emit = |ev: SymEvent<'_>, span: Span| self.feed(ev, span);
        parser.feed_interned(xml, &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
        self.check(xml);
    }
}

// ------------------------------------------------------ random inputs

/// Names documents and queries share, names only documents use, names
/// only queries use.
const SHARED: &[&str] = &["a", "b", "c", "d", "e", "x"];
const DOC_ONLY: &[&str] = &["w", "zz"];
const QUERY_ONLY: &[&str] = &["q0", "q1", "q2"];

fn step_name(rng: &mut SmallRng) -> &'static str {
    match rng.gen_range(0..20) {
        0..=1 => "*",
        2..=3 => QUERY_ONLY.choose(rng).unwrap(),
        _ => SHARED.choose(rng).unwrap(),
    }
}

fn random_conjunct(rng: &mut SmallRng) -> String {
    let axis = if rng.gen_bool(0.3) { ".//" } else { "" };
    let name = step_name(rng);
    match rng.gen_range(0..8) {
        0 => format!("{axis}{name} > {}", rng.gen_range(0..8)),
        1 => format!("{axis}{name} = \"x\""),
        2 => "@k".to_string(),
        3 => "@k = \"v\"".to_string(),
        4 => format!("@{name}"),
        5 => format!("{axis}{name}[{}]", step_name(rng)),
        6 => format!("{axis}{name}/{}", step_name(rng)),
        _ => format!("{axis}{name}"),
    }
}

/// A random query of the supported fragment with an element output
/// node, so it runs in both modes.
fn random_query(rng: &mut SmallRng) -> Query {
    loop {
        let mut src = String::new();
        for _ in 0..rng.gen_range(1..4) {
            src.push_str(if rng.gen_bool(0.4) { "//" } else { "/" });
            src.push_str(step_name(rng));
            if rng.gen_bool(0.4) {
                let conjuncts: Vec<String> = (0..rng.gen_range(1..3))
                    .map(|_| random_conjunct(rng))
                    .collect();
                src.push_str(&format!("[{}]", conjuncts.join(" and ")));
            }
        }
        let q = parse_query(&src).unwrap_or_else(|e| panic!("generated {src}: {e}"));
        if CompiledQuery::compile(&q).is_ok_and(|c| c.reporting_supported().is_ok()) {
            return q;
        }
    }
}

fn random_element(rng: &mut SmallRng, depth: usize, out: &mut String) {
    let name = if rng.gen_bool(0.15) {
        DOC_ONLY.choose(rng).unwrap()
    } else {
        SHARED.choose(rng).unwrap()
    };
    out.push('<');
    out.push_str(name);
    match rng.gen_range(0..6) {
        0 => out.push_str(" k=\"v\""),
        1 => out.push_str(" k=\"u\" a=\"1\""),
        _ => {}
    }
    out.push('>');
    for _ in 0..rng.gen_range(0..4) {
        if depth < 6 && rng.gen_bool(0.7) {
            random_element(rng, depth + 1, out);
        } else {
            out.push_str(["1", "6", "x", " "].choose(rng).unwrap());
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

fn random_xml(rng: &mut SmallRng) -> String {
    let mut out = String::new();
    random_element(rng, 0, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(24)))]

    /// Random banks of 1, 6, 65 and 300 queries over random documents,
    /// both modes, each bank reused across documents like a session.
    #[test]
    fn dispatching_bank_equals_solo_filters(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let size = [1usize, 6, 65, 300][seed as usize % 4];
        let queries: Vec<Query> = (0..size).map(|_| random_query(&mut rng)).collect();
        let docs: Vec<String> = (0..3).map(|_| random_xml(&mut rng)).collect();
        for reporting in [false, true] {
            let mut lanes = Lanes::new(&queries, reporting);
            let mut parser = lanes.xml_parser();
            for xml in &docs {
                lanes.xml(&mut parser, xml);
            }
        }
    }
}

// --------------------------------------------------- the three corpora

/// An XMark-lite auction document (`items` etc. grow with `scale`).
fn xmark(scale: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(42);
    let cfg = XmarkConfig {
        items: 10 * scale,
        auctions: 6 * scale,
        people: 5 * scale,
        category_depth: 4,
    };
    auction_site(&mut rng, &cfg).to_xml()
}

/// XMark through the XML tokenizer: the standing queries plus
/// selection-style paths (descendant output, recursion through nested
/// categories, a wildcard step), sessions reused across scales.
#[test]
fn xmark_corpus_through_the_xml_frontend() {
    let mut queries: Vec<Query> = standing_queries().into_iter().map(|(_, q)| q).collect();
    for src in [
        "//item[price > 300]/name",
        "/site/regions/asia/item/name",
        "//category//name",
        "//person[watches]/name",
        "/site/open_auctions/open_auction[bidder]/current",
        "//*[name]/price",
    ] {
        queries.push(parse_query(src).unwrap());
    }
    let docs = [1, 3, 2].map(xmark);
    for reporting in [false, true] {
        let mut lanes = Lanes::new(&queries, reporting);
        let mut parser = lanes.xml_parser();
        for xml in &docs {
            lanes.xml(&mut parser, xml);
        }
    }
}

/// The HTML-soup and JSON corpora through their own frontends.
#[test]
fn soup_and_json_corpora_through_their_frontends() {
    let parse = |srcs: Vec<String>| -> Vec<Query> {
        srcs.iter().map(|s| parse_query(s).unwrap()).collect()
    };
    let mut rng = SmallRng::seed_from_u64(0x50DA);
    let soup = html_soup_corpus(&mut rng, &HtmlSoupConfig::default(), 24);
    let records = json_records(&mut rng, &JsonRecordsConfig::default(), 64);
    for reporting in [false, true] {
        let mut lanes = Lanes::new(&parse(soup_queries()), reporting);
        let mut html = HtmlParser::with_symbols(Arc::clone(lanes.bank.symbols())).lookup_only();
        for doc in &soup {
            html.reset();
            let mut emit = |ev: SymEvent<'_>, span: Span| lanes.feed(ev, span);
            html.feed_interned(&doc.html, &mut emit).unwrap();
            html.finish_interned(&mut emit).unwrap();
            lanes.check(&doc.html);
        }

        let mut lanes = Lanes::new(&parse(json_queries()), reporting);
        let mut json = JsonParser::with_symbols(Arc::clone(lanes.bank.symbols())).lookup_only();
        for record in &records {
            json.reset();
            let mut emit = |ev: SymEvent<'_>, span: Span| lanes.feed(ev, span);
            json.feed_interned(&record.json, &mut emit).unwrap();
            json.finish_interned(&mut emit).unwrap();
            lanes.check(&record.json);
        }
    }
}

// ------------------------------------------- the adversarial document

/// The shape that breaks if the per-filter high-water mark is wrong: the
/// document's deepest subtree lies entirely under names no query
/// mentions and is entered while a filter holds its largest frontier —
/// and, in the second document, while it is buffering a leaf value. The
/// filter is passed over for the whole descent, so only the mark can
/// tell it how deep the stream went with those rows live.
#[test]
fn deepest_subtree_under_unmentioned_names() {
    let queries: Vec<Query> = ["//a[b and c and d]", "//a[b > 5]/c", "/r//c", "//q0"]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let depth = 40;
    let pit = format!("{}7{}", "<zz>".repeat(depth), "</zz>".repeat(depth));
    let docs = [
        // Largest frontier: inside <a>, after <b/>, before <c/>.
        format!("<r><a><b/>{pit}<c/><d/></a><c/></r>"),
        // Buffering: the text at the bottom of the pit belongs to <b>.
        format!("<r><a><b>{pit}</b><c/></a></r>"),
        // The mark must not outlive the delivery that consumed it: a
        // second, shallower pit after the first.
        format!("<r><a><b/>{pit}<c/><zz><zz/></zz><d/></a></r>"),
    ];
    for reporting in [false, true] {
        let mut lanes = Lanes::new(&queries, reporting);
        let mut parser = lanes.xml_parser();
        for xml in &docs {
            lanes.xml(&mut parser, xml);
            // The comparison above is only as good as the reference: the
            // solo filters did see the bottom of the pit.
            let undecided = lanes.early.iter().position(Option::is_none).unwrap();
            assert!(lanes.solos[undecided].stats().max_level > depth);
        }
    }
}

// -------------------------------------------------------- the work gate

/// Feeds `xml` to a reporting bank of `queries`; returns the
/// (filter, event) deliveries it made and the events it was fed.
fn deliveries(queries: &[Query], xml: &str) -> (u64, u64) {
    let compiled = queries.iter().map(|q| CompiledQuery::compile(q).unwrap());
    let mut bank = MultiFilter::from_compiled_reporting(compiled).unwrap();
    let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols())).lookup_only();
    let mut events = 0u64;
    let mut emit = |ev: SymEvent<'_>, span: Span| {
        events += 1;
        bank.process_sym_to(ev, span, &mut |_: Match| {});
    };
    parser.feed_interned(xml, &mut emit).unwrap();
    parser.finish_interned(&mut emit).unwrap();
    (bank.filter_events_delivered(), events)
}

/// A count, not a clock (wall time on a shared box cannot gate this):
/// the six standing queries in reporting mode — which never decides
/// early — see about a quarter of the full fan-out on XMark, and a query
/// over names the document never uses costs four deliveries (document
/// framing and the root's two tags) however long the document is.
#[test]
fn delivered_work_tracks_interest_not_bank_size() {
    let standing: Vec<Query> = standing_queries().into_iter().map(|(_, q)| q).collect();
    let (delivered, events) = deliveries(&standing, &xmark(4));
    let share = delivered as f64 / (standing.len() as u64 * events) as f64;
    assert!(
        share <= 0.35,
        "{delivered} deliveries of {} × {events}: share {share:.3} (measured interest: 0.23)",
        standing.len()
    );

    let mut wide = standing.clone();
    for i in 0..100 {
        let src = [format!("//absent{i}[k{i} > 3]/v"), format!("/absent{i}/v")];
        wide.push(parse_query(&src[i % 2]).unwrap());
    }
    let extra_per_query = |scale: usize| {
        let xml = xmark(scale);
        let (base, _) = deliveries(&standing, &xml);
        let (with_absent, _) = deliveries(&wide, &xml);
        (with_absent - base) as f64 / 100.0
    };
    assert_eq!(extra_per_query(1), 4.0);
    assert_eq!(extra_per_query(8), 4.0);
}

// ----------------------------------------------------- malformed streams

/// Streams no tokenizer would produce. The paper lets an algorithm
/// answer arbitrarily on them; it may not crash, and nothing of them may
/// survive the next `StartDocument`.
fn malformed_streams() -> Vec<Vec<Event>> {
    let mut streams = vec![
        // A bare end tag.
        vec![Event::StartDocument, Event::end("a"), Event::EndDocument],
        // An end tag named differently from its start tag, at the root
        // and below it.
        vec![
            Event::StartDocument,
            Event::start("a"),
            Event::start("c"),
            Event::start("e"),
            Event::end("nope"),
            Event::end("c"),
            Event::start("b"),
            Event::text("9"),
            Event::end("a"),
            Event::end("b"),
            Event::EndDocument,
        ],
        // A `StartDocument` in mid-document, candidates and buffer open.
        vec![
            Event::StartDocument,
            Event::start("a"),
            Event::start("b"),
            Event::text("7"),
            Event::StartDocument,
            Event::end("b"),
            Event::end("a"),
            Event::end("a"),
            Event::EndDocument,
        ],
    ];
    // The lower-bound prober's crossed prefix/suffix pairs: toggled
    // frontier members (Thm 4.2) and mismatched depths (Thm 4.6) — more
    // ends than starts one way, elements left open the other.
    let fooling = frontier_bound(&parse_query("/a[c[.//e and f] and b > 5]").unwrap(), None)
        .unwrap()
        .fooling;
    for (i, (prefix, _)) in fooling.pairs.iter().enumerate() {
        let (_, suffix) = &fooling.pairs[(i + 3) % fooling.pairs.len()];
        streams.push([prefix.clone(), suffix.clone()].concat());
    }
    let depth = depth_bound(&parse_query("/a/b").unwrap()).unwrap();
    for (i, j) in [(0, 3), (3, 0), (2, 5)] {
        streams.push([depth.alpha_i(i), depth.beta_i(j), depth.gamma_i(j)].concat());
    }
    streams
}

#[test]
fn malformed_streams_neither_panic_nor_leak_into_the_next_document() {
    let queries: Vec<Query> = [
        "/a[c[.//e and f] and b > 5]",
        "//a[b and c]",
        "/a/b",
        "//c//e",
        "/a/*/f",
        "//b",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    let compiled = || queries.iter().map(|q| CompiledQuery::compile(q).unwrap());
    let well_formed =
        fx_xml::parse("<a><c><e>1</e><f/></c><b>6</b><c><x><e/></x></c></a>").unwrap();

    // What a consumer shows of one document.
    type Reading = (Vec<Option<bool>>, Vec<Match>, Vec<SpaceStats>, Vec<usize>);
    let run_bank = |bank: &mut MultiFilter, events: &[Event]| -> Reading {
        let mut matches = Vec::new();
        feed_to(bank, events.iter().map(|e| (e, Span::EMPTY)), &mut matches);
        let stats = bank.stats().into_iter().cloned().collect();
        (
            bank.results(),
            matches,
            stats,
            bank.peak_pending_positions(),
        )
    };
    let run_filter = |f: &mut StreamFilter, events: &[Event]| -> Reading {
        let mut matches = Vec::new();
        for e in events {
            f.process_to(e, Span::EMPTY, 0, &mut matches);
        }
        (
            vec![f.result()],
            matches,
            vec![f.stats().clone()],
            vec![f.peak_pending_positions()],
        )
    };

    for stream in malformed_streams() {
        for q in &queries {
            let mut used = StreamFilter::new_reporting(q).unwrap();
            run_filter(&mut used, &stream);
            assert_eq!(
                run_filter(&mut used, &well_formed),
                run_filter(&mut StreamFilter::new_reporting(q).unwrap(), &well_formed),
                "reporting filter after {stream:?}"
            );
        }
        let mut used = MultiFilter::from_compiled_reporting(compiled()).unwrap();
        run_bank(&mut used, &stream);
        assert_eq!(
            run_bank(&mut used, &well_formed),
            run_bank(
                &mut MultiFilter::from_compiled_reporting(compiled()).unwrap(),
                &well_formed
            ),
            "reporting bank after {stream:?}"
        );
        let mut used = MultiFilter::from_compiled(compiled());
        run_bank(&mut used, &stream);
        assert_eq!(
            run_bank(&mut used, &well_formed),
            run_bank(&mut MultiFilter::from_compiled(compiled()), &well_formed),
            "filtering bank after {stream:?}"
        );
    }
}
