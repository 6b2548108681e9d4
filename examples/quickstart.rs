//! Quickstart: build a streaming engine, filter an XML document straight
//! from its bytes, and inspect the memory the filter actually used.
//!
//! Run with: `cargo run --example quickstart`

use frontier_xpath::analysis::{frontier_size, path_recursion_depth, redundancy_free};
use frontier_xpath::prelude::*;

fn main() {
    // The paper's running example (Fig. 3): a query with predicates, a
    // descendant axis, and a value comparison.
    let query_src = "/a[c[.//e and f] and b > 5]";
    let query = parse_query(query_src).expect("valid Forward XPath");
    println!("query:          {query_src}");
    println!("|Q|:            {}", query.len());
    println!(
        "FS(Q):          {}  (the paper's lower bound, in bits)",
        frontier_size(&query)
    );
    println!("redundancy-free: {}", redundancy_free(&query).is_empty());

    // The canonical surface: an Engine streams documents from any
    // `io::Read` — the document is never materialized.
    let engine = Engine::builder()
        .query(query.clone())
        .build()
        .expect("query is in the supported fragment");
    let xml = "<a><c><d/><e/><f/></c><b>6</b><c/></a>";
    println!("\ndocument:       {xml}");
    let verdicts = engine
        .session()
        .run_reader(xml.as_bytes())
        .expect("well-formed XML");
    println!("matches:        {}", verdicts.any());
    println!(
        "peak bits:      {}  (Theorem 8.8's measure)",
        verdicts.total_peak_bits()
    );

    // For the full space breakdown, drive the Section-8 filter directly —
    // it is the same incremental event-at-a-time algorithm the engine
    // runs under the hood.
    let mut filter = StreamFilter::new(&query).expect("supported fragment");
    for event in EventIter::new(xml.as_bytes()) {
        filter.process(&event.expect("well-formed XML"));
    }
    assert_eq!(filter.result(), Some(verdicts.any()));
    let stats = filter.stats();
    println!("\n-- space used (Theorem 8.8's measure) --");
    println!("frontier rows (peak): {}", stats.max_rows);
    println!("buffer bytes (peak):  {}", stats.max_buffer_bytes);
    println!("document depth d:     {}", stats.max_level + 1);
    println!("text width w:         {}", stats.max_text_width);
    println!("total bits (peak):    {}", stats.max_bits);

    // Cross-check against the in-memory reference evaluator (Def. 3.6).
    let doc = Document::from_xml(xml).unwrap();
    assert_eq!(bool_eval(&query, &doc).unwrap(), verdicts.any());
    println!(
        "\nreference evaluator agrees; document recursion depth r = {}",
        path_recursion_depth(&query, &doc)
    );

    // Full evaluation returns the selected nodes in document order.
    let selected = full_eval(&query, &doc).unwrap();
    println!("FULLEVAL selects {} node(s)", selected.len());
}
