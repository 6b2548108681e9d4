//! Skip parity: on its reader path, a single-query session's tokenizer
//! passes over whatever lies past the filter's horizon
//! (`fx_core::HorizonFeed`) — elements deeper than every row the
//! filter holds that no descendant row names, text while nothing
//! buffers, most of a decided document — and hands the filter the
//! position that stretch left it at. It must stay observationally
//! **equal to the never-skipping `push_spanned_to` path**: verdicts,
//! peak bits, peak pending positions, `Verdicts::events()` and the
//! match sequence (query, ordinal, span), in both modes — on the 64
//! XMark documents with each standing query alone, random documents
//! 4–12 levels deep, recursive `<a>` documents, and reads of 1 to 7
//! bytes. The same queries also run together as a bank, under both
//! index policies: a bank has no horizon, so its reader path delivers
//! every event through the same feed, and its `events()` is that feed's
//! count. A malformed document fails with the same message at the same
//! byte whether or not its fault lies in a region passed over, and a
//! work gate shows the passing over is real.

use frontier_xpath::engine::{IndexPolicy, Mode};
use frontier_xpath::filter::{CompiledQuery, Evaluator, HorizonFeed, Match};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    auction_site, random_document, standing_queries, RandomDocConfig, XmarkConfig,
};
use frontier_xpath::xml::{parse_spanned, StreamingParser};
use frontier_xpath::xpath::to_xpath;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use std::sync::Arc;

mod common;
use common::{fx_cases, random_query, random_xml};

/// The `xmark-single` benchmark workload's query.
const XMARK_SINGLE: &str = "//open_auction[bidder and current > 980]";

/// A reader handing out at most `most` bytes a call.
struct Trickle<'a> {
    rest: &'a [u8],
    most: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.most.min(out.len()).min(self.rest.len());
        out[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// The read sizes every document goes through: the session's own
/// 8 KiB chunk, and (`tiny`) every size from 1 to 7 bytes.
fn reads(tiny: bool) -> Vec<usize> {
    let mut reads = vec![8 * 1024];
    if tiny {
        reads.extend(1..=7);
    }
    reads
}

/// One query, or a bank of them, in one mode: the push path, which
/// delivers every event, and one reader-path session per read size.
/// Each session is reused across documents, so `events()` accumulates
/// on both sides.
struct Lane {
    label: String,
    pushing: Session,
    skipping: Vec<(usize, Session)>,
}

const MODES: [Mode; 2] = [Mode::Filter, Mode::Select];

impl Lane {
    fn new(queries: &[String], mode: Mode, index: IndexPolicy, reads: &[usize]) -> Lane {
        let parsed = queries.iter().map(|q| parse_query(q).unwrap());
        let engine = Engine::builder()
            .queries(parsed)
            .mode(mode)
            .index(index)
            .build()
            .unwrap_or_else(|e| panic!("{queries:?}: {e}"));
        Lane {
            label: format!("{queries:?} ({mode:?}, {index:?})"),
            pushing: engine.session(),
            skipping: reads.iter().map(|&n| (n, engine.session())).collect(),
        }
    }

    /// Every query of `queries` alone, in both modes; then all of them
    /// as one bank under each index policy, in both modes.
    fn all(queries: &[String], reads: &[usize]) -> Vec<Lane> {
        let alone = queries.iter().flat_map(|q| {
            let query = std::slice::from_ref(q);
            MODES.map(|mode| Lane::new(query, mode, IndexPolicy::None, reads))
        });
        let banks = [IndexPolicy::None, IndexPolicy::SharedPrefix]
            .into_iter()
            .flat_map(|index| MODES.map(|mode| Lane::new(queries, mode, index, reads)));
        alone.chain(banks).collect()
    }

    /// `xml` (whose spanned events are `events`) down both paths.
    fn check(&mut self, xml: &str, events: &[(Event, Span)], doc: &str) {
        let mut want: Vec<Match> = Vec::new();
        for (event, span) in events {
            self.pushing.push_spanned_to(event, *span, &mut want);
        }
        let want = (self.pushing.finish().unwrap(), want);
        for (most, session) in &mut self.skipping {
            let reader = Trickle {
                rest: xml.as_bytes(),
                most: *most,
            };
            let mut got: Vec<Match> = Vec::new();
            let verdicts = session.run_reader_to(reader, &mut got).unwrap();
            assert_eq!(
                (verdicts, got),
                want,
                "{} on {doc}, reads of {most} bytes",
                self.label
            );
        }
    }
}

/// Every document of `docs` down every lane.
fn assert_skip_parity(lanes: &mut [Lane], docs: &[String]) {
    for (i, xml) in docs.iter().enumerate() {
        let events = parse_spanned(xml).unwrap();
        for lane in lanes.iter_mut() {
            lane.check(xml, &events, &format!("document {i}"));
        }
    }
}

/// The `xmark-single` workload's 64 documents at seed 42 (2.04 MB).
fn xmark_corpus() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(42u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1);
    (0..64)
        .map(|i| {
            let scale = 1 + i % 16;
            let cfg = XmarkConfig {
                items: 10 * scale,
                auctions: 6 * scale,
                people: 5 * scale,
                category_depth: 4,
            };
            auction_site(&mut rng, &cfg).to_xml()
        })
        .collect()
}

/// `xmark-single`'s query and the six standing queries.
fn xmark_queries() -> Vec<String> {
    let standing = standing_queries().into_iter().map(|(_, q)| to_xpath(&q));
    std::iter::once(XMARK_SINGLE.to_string())
        .chain(standing)
        .collect()
}

#[test]
fn the_xmark_corpus_reads_alike_with_every_standing_query_alone() {
    let (corpus, queries) = (xmark_corpus(), xmark_queries());
    assert_skip_parity(&mut Lane::all(&queries, &reads(false)), &corpus);
    // Reads of 1 to 7 bytes, over the four smallest documents.
    let small: Vec<String> = corpus.into_iter().step_by(16).collect();
    assert_skip_parity(&mut Lane::all(&queries, &reads(true)), &small);
}

#[test]
fn recursive_documents_read_alike() {
    let queries = ["//a[b and c]".to_string(), "//a//b".to_string()];
    let mut docs = Vec::new();
    for r in 1..=9 {
        let (open, close) = ("<a>".repeat(r), "</a>".repeat(r));
        docs.push(format!("{open}<b/><c/>{close}"));
        docs.push(format!("{}{close}", "<a><b/>".repeat(r)));
        docs.push(format!("{open}<x><y><b/></y><c>t</c></x>{close}"));
        docs.push(format!(
            "<r>{}{}</r>",
            "<a><z>".repeat(r),
            "</z><c/></a>".repeat(r)
        ));
        docs.push(format!(
            "<a><c/>{}<b>1</b>{}</a>",
            "<z><a>".repeat(r),
            "</a></z>".repeat(r)
        ));
    }
    assert_skip_parity(&mut Lane::all(&queries, &reads(true)), &docs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(16)))]

    /// Random documents 4 to 12 levels deep, and random documents whose
    /// elements carry `k` and `a` attributes, under random queries of the
    /// supported fragment (wildcards, value tests and `@k` included).
    #[test]
    fn random_documents_read_alike(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = RandomDocConfig {
            max_depth: rng.gen_range(4..=12),
            max_children: 3,
            ..RandomDocConfig::default()
        };
        let mut docs: Vec<String> =
            (0..3).map(|_| random_document(&mut rng, &cfg).to_xml()).collect();
        docs.extend((0..3).map(|_| random_xml(&mut rng)));
        let queries: Vec<String> = (0..3).map(|_| to_xpath(&random_query(&mut rng))).collect();
        assert_skip_parity(&mut Lane::all(&queries, &reads(true)), &docs);
    }
}

/// What a document does to a session whose filter has a horizon
/// (`//q`: everything below the root that is not a `q` is passed over)
/// and to one whose filter has none (`//*[zzz]`: a wildcard descendant
/// row), at 8 KiB reads and at 1-byte reads.
fn outcomes(xml: &str) -> Vec<Result<Verdicts, String>> {
    let mut out = Vec::new();
    for query in ["//q", "//*[zzz]", XMARK_SINGLE] {
        let engine = Engine::builder().query_str(query).build().unwrap();
        for most in [8 * 1024, 1] {
            let reader = Trickle {
                rest: xml.as_bytes(),
                most,
            };
            let result = engine.session().run_reader(reader);
            out.push(result.map_err(|e| e.to_string()));
        }
    }
    out
}

#[test]
fn a_fault_passed_over_fails_as_it_does_delivered() {
    let cases = [
        ("mismatched end tag", "<r><x><y></x></y></r>"),
        ("`<` inside a tag", r#"<r><x a="1"<y/></x></r>"#),
        ("missing `=`", r#"<r><x><y a"1"/></x></r>"#),
        ("unquoted value", "<r><x><y a=1/></x></r>"),
        (
            "duplicate attribute",
            r#"<r><x><y a="1" b="2" a="3"/></x></r>"#,
        ),
        ("bad entity in text", "<r><x><y>1 &bogus; 2</y></x></r>"),
        (
            "bad entity in an attribute",
            r#"<r><x><y a="&#0;"/></x></r>"#,
        ),
        ("truncated tag at EOF", r#"<r><x><y a="1""#),
        ("second root", "<r><x><y/></x></r><r/>"),
        ("text outside the root", "<r><x><y/></x></r>tail"),
    ];
    for (case, xml) in cases {
        let outcomes = outcomes(xml);
        let Err(first) = &outcomes[0] else {
            panic!("{case}: {xml} parsed");
        };
        assert!(
            first.contains("XML parse error at byte "),
            "{case}: {first}"
        );
        for outcome in &outcomes[1..] {
            assert_eq!(outcome.as_ref().err(), Some(first), "{case}: {xml}");
        }
    }
    // And a well-formed document whose entities and attributes sit in a
    // region passed over still parses.
    let fine = r#"<r><x a="1 &amp; 2" b='&#x41;'><y>&lt;&#32;</y><![CDATA[<z>]]></x></r>"#;
    assert!(outcomes(fine).iter().all(Result::is_ok));
}

#[test]
fn most_of_xmark_is_passed_over_and_the_space_statistics_do_not_move() {
    let compiled = Arc::new(CompiledQuery::compile(&parse_query(XMARK_SINGLE).unwrap()).unwrap());
    let mut horizoned = StreamFilter::from_shared(Arc::clone(&compiled));
    let mut bare = StreamFilter::from_shared(Arc::clone(&compiled));
    let table = Arc::clone(compiled.symbols());
    let mut parser = StreamingParser::with_symbols(table).lookup_only();
    let (mut delivered, mut passed) = (0, 0);
    let sink = &mut |_: Match| {};
    for xml in xmark_corpus() {
        parser.reset();
        let mut feed = HorizonFeed::new(&mut horizoned, sink);
        parser.drive_to(xml.as_bytes(), &mut feed).unwrap();
        (delivered, passed) = (delivered + feed.delivered(), passed + feed.passed());
        parser.reset();
        parser
            .drive(xml.as_bytes(), &mut |ev, span| bare.event(ev, span, sink))
            .unwrap();
        assert_eq!(horizoned.result(), bare.result());
        assert_eq!(horizoned.stats(), bare.stats());
    }
    let share = passed as f64 / (delivered + passed) as f64;
    // 76 % of the corpus' events lie where this query cannot see.
    assert!(
        share > 0.7,
        "passed over {:.1} % of the events",
        share * 100.0
    );
}
