//! End-to-end integration tests: every worked example in the paper,
//! exercised across the full crate stack (XML parser → query parser →
//! analysis → streaming filter → reference evaluator).

use frontier_xpath::analysis::{frontier_size, path_recursion_depth, redundancy_free, text_width};
use frontier_xpath::prelude::*;

fn stream_matches(query: &str, xml: &str) -> bool {
    // Through the canonical engine surface: the document is streamed
    // from its bytes, never materialized as events.
    Engine::builder()
        .query_str(query)
        .build()
        .unwrap()
        .run_str(xml)
        .unwrap()
        .any()
}

fn both_agree(query: &str, xml: &str) -> bool {
    let q = parse_query(query).unwrap();
    let d = Document::from_xml(xml).unwrap();
    let reference = bool_eval(&q, &d).unwrap();
    let streamed = stream_matches(query, xml);
    assert_eq!(reference, streamed, "{query} on {xml}");
    // Lemma 5.10: matching existence coincides for the univariate
    // conjunctive queries used in these scenarios.
    assert_eq!(
        document_matches(&q, &d).unwrap(),
        reference,
        "{query} on {xml}"
    );
    reference
}

#[test]
fn section_4_1_frontier_example() {
    // D from Theorem 4.2 and its reorderings (Claim 4.3).
    let q = "/a[c[.//e and f] and b > 5]";
    assert!(both_agree(q, "<a><c><e/><f/></c><b>6</b></a>"));
    assert!(both_agree(q, "<a><b>6</b><c><f/><e/></c></a>"));
    // The crossing documents D_{T,T'} (Claim 4.4).
    assert!(!both_agree(q, "<a><b>6</b><c><f/><f/></c></a>"));
    assert!(!both_agree(q, "<a><c><e/><e/></c><b>6</b></a>"));
}

#[test]
fn section_4_2_recursion_example() {
    // D_{s,t} for s=110, t=010 (Fig. 5).
    let q = "//a[b and c]";
    assert!(both_agree(q, "<a><b/><a><b/><a></a><c/></a></a>"));
    // Disjoint sets: no a has both children.
    assert!(!both_agree(q, "<a><b/><a><a><c/></a></a></a>"));
    // The paper's §4.2 recursion-depth example document.
    let query = parse_query(q).unwrap();
    let d = Document::from_xml("<a><a><b/><c/></a></a>").unwrap();
    assert_eq!(path_recursion_depth(&query, &d), 2);
}

#[test]
fn section_4_3_depth_example() {
    // D_i and D_{i,j} shapes (Fig. 6).
    let q = "/a/b";
    for i in [0usize, 1, 5, 30] {
        let xml = format!(
            "<a>{o}{c}<b/>{o}{c}</a>",
            o = "<Z>".repeat(i),
            c = "</Z>".repeat(i)
        );
        assert!(both_agree(q, &xml), "D_{i}");
    }
    // D_{i,j}: the b node slides into the Z path.
    let xml = format!(
        "<a>{}{}<b/>{}{}</a>",
        "<Z>".repeat(5),
        "</Z>".repeat(2),
        "<Z>".repeat(2),
        "</Z>".repeat(5)
    );
    assert!(!both_agree(q, &xml));
}

#[test]
fn section_5_fragment_examples() {
    // Every §5 example lands on the right side of the fragment line.
    let rf = [
        "/a[c[.//e and f] and b > 5]",
        "/a[b/c > 5 and d]",
        "/a[b[c > 5]]",
    ];
    for src in rf {
        assert!(
            redundancy_free(&parse_query(src).unwrap()).is_empty(),
            "{src}"
        );
    }
    let not_rf = [
        "/a[b > 5 and b > 6]",
        "/a/*",
        "/a[b or c]",
        "/a[b > c]",
        "/a[b[c] > 5]",
        "/a[b[c = \"A\"] and ends-with(b, \"B\")]",
    ];
    for src in not_rf {
        assert!(
            !redundancy_free(&parse_query(src).unwrap()).is_empty(),
            "{src}"
        );
    }
}

#[test]
fn section_6_4_canonical_example() {
    // The §6.4.1 canonical document matches uniquely.
    let q = parse_query("/a[*/b > 5 and c/b//d > 12 and .//d < 30]").unwrap();
    let cd = canonical_document(&q).unwrap();
    assert!(document_matches(&q, &cd.doc).unwrap());
    assert_eq!(
        frontier_xpath::eval::count_matchings(&q, &cd.doc, 16).unwrap(),
        1
    );
    // And streams correctly through the filter.
    let engine = Engine::builder().query(q).build().unwrap();
    assert!(engine.run_str(&cd.doc.to_xml()).unwrap().any());
}

#[test]
fn section_8_4_example_run() {
    // Fig. 22's scenario with its three narrated behaviors (see
    // fx-core's trace tests for the tuple-level detail).
    let q = "/a[c[.//e and f] and b]";
    assert!(both_agree(q, "<a><c><d/><e/><f/></c><b/><c/></a>"));
    let query = parse_query(q).unwrap();
    assert_eq!(frontier_size(&query), 3);
    let events = parse_xml("<a><c><d/><e/><f/></c><b/><c/></a>").unwrap();
    let mut f = StreamFilter::new(&query).unwrap();
    for e in &events {
        f.process(e);
    }
    assert_eq!(f.result(), Some(true));
    assert!(f.stats().max_rows <= 3);
}

#[test]
fn section_8_6_quantities() {
    // Path recursion depth vs recursion depth (//a[b] on <a><a/></a>).
    let q = parse_query("//a[b]").unwrap();
    let d = Document::from_xml("<a><a></a></a>").unwrap();
    assert_eq!(path_recursion_depth(&q, &d), 2);
    // Text width (/a[b] on the dear-sir-or-madam document).
    let q2 = parse_query("/a[b]").unwrap();
    let d2 = Document::from_xml("<a>dear<b>sir</b>or<b>madam</b></a>").unwrap();
    assert_eq!(text_width(&q2, &d2), 5);
}

#[test]
fn remark_3_5_semantics() {
    // The paper's deviation from standard XPath: /a[b + 2 = 5] is true on
    // <a><b>0</b><b>3</b></a> under the existential product semantics.
    assert!(both_agree("/a[b + 2 = 5]", "<a><b>0</b><b>3</b></a>"));
}

#[test]
fn theorem_8_8_space_shape_end_to_end() {
    // One compound check across the stack: memory is linear in r,
    // logarithmic in d, and bounded by |Q|·r rows.
    let q = parse_query("//a[b and c]").unwrap();
    let mut prev_rows = 0;
    for r in [1usize, 8, 64] {
        let xml = format!("{}<b/><c/>{}", "<a><b/>".repeat(r), "</a>".repeat(r));
        let events = parse_xml(&xml).unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        for e in &events {
            f.process(e);
        }
        assert_eq!(f.result(), Some(true));
        let rows = f.stats().max_rows;
        assert!(rows > prev_rows);
        assert!(rows <= q.len() * (r + 1));
        prev_rows = rows;
    }
}

#[test]
fn multi_query_bank_spanning_fragments() {
    let queries: Vec<Query> = [
        "/site//item[price > 100]",
        "//open_auction[bidder]",
        "/site/people/person[name]",
        "//category[category]",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    let engine = Engine::builder()
        .queries(queries.iter().cloned())
        .build()
        .unwrap();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(5);
    let doc = frontier_xpath::workloads::auction_site(
        &mut rng,
        &frontier_xpath::workloads::XmarkConfig::default(),
    );
    let verdicts = engine.run_str(&doc.to_xml()).unwrap();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(verdicts.matched()[i], bool_eval(q, &doc).unwrap());
    }
}
