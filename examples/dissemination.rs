//! Selective dissemination of information (the XFilter/YFilter scenario
//! that motivated streaming XPath engines, [1] in the paper): a stream of
//! auction-site documents is matched against a bank of standing user
//! queries, each evaluated in near-optimal memory.
//!
//! One `Engine` compiles the bank once; one reused `Session` streams
//! every arriving document through it. Under the hood the bank
//! short-circuits: a filter whose verdict is already decided stops
//! seeing events.
//!
//! Run with: `cargo run --example dissemination`

use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    auction_site, random_shared_prefix_bank, standing_queries, SharedPrefixBankConfig, XmarkConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let labeled = standing_queries();
    let engine = Engine::builder()
        .queries(labeled.iter().map(|(_, q)| q.clone()))
        .build()
        .expect("standing queries are supported");
    println!("registered {} standing queries:", engine.len());
    for (label, q) in &labeled {
        println!("  [{label}] {}", frontier_xpath::xpath::to_xpath(q));
    }

    let mut session = engine.session();
    let mut rng = SmallRng::seed_from_u64(20260613);
    let mut deliveries = vec![0usize; engine.len()];
    let docs = 25usize;
    let mut total_bits = 0u64;
    let mut total_events = 0u64;

    for doc_id in 0..docs {
        let doc = auction_site(
            &mut rng,
            &XmarkConfig {
                items: 8,
                auctions: 6,
                people: 5,
                category_depth: 2 + doc_id % 3,
            },
        );
        // Stream the document's bytes through the session — it is parsed
        // and filtered incrementally, never materialized.
        let verdicts = session
            .run_reader(doc.to_xml().as_bytes())
            .expect("well-formed");
        // `matching()` iterates the fan-out list without allocating a
        // Vec per document — this loop runs once per arriving document.
        for idx in verdicts.matching() {
            deliveries[idx] += 1;
        }
        total_bits = verdicts.total_peak_bits();
        total_events = verdicts.events(); // cumulative across the session
    }

    println!("\nprocessed {docs} documents ({total_events} events through the session)");
    println!("\n-- deliveries --");
    for (i, (label, _)) in labeled.iter().enumerate() {
        println!("  {label:<18} {:>3}/{docs}", deliveries[i]);
    }

    println!(
        "\naggregate peak filter state: {total_bits} bits ({} bytes)",
        total_bits.div_ceil(8)
    );
    println!("(compare: buffering even one document would cost kilobytes)");

    // -- full-fledged dissemination: deliver the matched fragments -----
    //
    // A Mode::Select engine goes beyond verdicts: each confirmed output
    // node streams to the sink the moment it resolves, stamped with its
    // query index and source byte span — exactly what a dissemination
    // broker needs to cut fragments out of the stream and route them to
    // subscribers mid-document.
    let select = Engine::builder()
        .queries(labeled.iter().map(|(_, q)| q.clone()))
        .mode(Mode::Select)
        .build()
        .expect("standing queries have element outputs");
    let doc = auction_site(&mut rng, &XmarkConfig::default());
    let xml = doc.to_xml();
    let mut fragments = vec![0usize; select.len()];
    let mut bytes_delivered = vec![0u64; select.len()];
    select
        .session()
        .run_reader_to(xml.as_bytes(), &mut |m: Match| {
            fragments[m.query] += 1;
            bytes_delivered[m.query] += m.span.len();
        })
        .expect("well-formed");
    println!("\n-- selection fan-out (one document) --");
    for (i, (label, _)) in labeled.iter().enumerate() {
        println!(
            "  {label:<18} {:>3} fragments, {:>6} bytes",
            fragments[i], bytes_delivered[i]
        );
    }

    // -- scaling the bank: the shared-prefix index ---------------------
    //
    // A real dissemination deployment registers thousands of standing
    // queries, most of them overlapping. IndexPolicy::SharedPrefix
    // canonicalizes the bank into a prefix trie so common chains are
    // evaluated once per event and per-query state exists only below
    // *activated* divergence points — same verdicts, sublinear work.
    let bank = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 64,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let indexed = Engine::builder()
        .queries(bank.queries.iter().cloned())
        .index(IndexPolicy::SharedPrefix)
        .build()
        .expect("generated families are supported");
    let mut session = indexed.session();
    let xml = bank.document(&[0, 17, 42], 8, 6); // 3 of 64 families active
    let verdicts = session.run_reader(xml.as_bytes()).expect("well-formed");
    println!(
        "\n-- shared-prefix index: {} queries, {} matched --",
        indexed.len(),
        verdicts.matching().count()
    );
    // The attributed space story: shared state split back across its
    // sharers, so the indexed bank's total is comparable to running
    // per-query filters — and far below it.
    let stats = session.index_stats().expect("indexed session");
    println!(
        "space: {} bits total ({} shared trie + {} residual instances), \
         sum of per-query attribution = {}",
        stats.total_bits,
        stats.shared_trie_bits,
        stats.residual_bits,
        verdicts.total_peak_bits(),
    );
    println!(
        "activations: {} instances over {} events ({:.3}/event), \
         {} compiled residual forms for {} query groups",
        stats.activations,
        stats.events,
        stats.activation_rate(),
        stats.residual_pool,
        stats.groups,
    );
    println!(
        "(per-event work tracked the 3 activated families, not the {}-query bank;\n\
         see fxbench's bank-1024 workload for the 1024-query end of the curve)",
        indexed.len()
    );
}
