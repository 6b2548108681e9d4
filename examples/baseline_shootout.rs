//! Frontier filter vs. the automata paradigm: reproduce the paper's §1.2
//! observation that DFA-based engines pay exponentially for transition
//! tables where the frontier algorithm stays near the lower bound.
//!
//! The frontier algorithm runs behind the `Engine`; the three baselines
//! are not engine options and are constructed directly. The DFA blowup
//! section additionally materializes the automaton eagerly, as a
//! compile-ahead engine would.
//!
//! Run with: `cargo run --example baseline_shootout`

use frontier_xpath::prelude::*;
use frontier_xpath::workloads::nested;
use frontier_xpath::xml::{AttrBuf, StreamingParser};
use std::sync::Arc;

fn main() {
    println!("== DFA transition-table blowup on //a/*^k/b (alphabet {{a,b}}) ==");
    println!(
        "{:>3} {:>12} {:>16} {:>16} {:>16}",
        "k", "DFA states", "DFA bits", "NFA bits", "frontier bits"
    );
    for k in [2usize, 4, 6, 8, 10] {
        let stars = "/*".repeat(k);
        let src = format!("//a{stars}/b");
        let query = parse_query(&src).unwrap();

        // Eagerly materialize the DFA, as a compile-ahead engine would.
        let mut dfa = LazyDfaFilter::new(&query).unwrap();
        let states = dfa.materialize(&["a", "b"]);

        // A worst-ish case document: alternating a/b nesting.
        let doc = nested("a", k + 2, "<b/>");
        let events = doc.to_events();

        // The same query on the frontier engine and on the two automata.
        let engine = Engine::builder().query(query.clone()).build().unwrap();
        let mut session = engine.session();
        for e in &events {
            session.push(e);
        }
        let frontier = session.finish().unwrap();
        let mut nfa = NfaFilter::new(&query).unwrap();
        assert_eq!(nfa.run_stream(&events), Some(frontier.any()));
        assert_eq!(dfa.run_stream(&events), Some(frontier.any()));

        println!(
            "{k:>3} {states:>12} {:>16} {:>16} {:>16}",
            dfa.peak_memory_bits(),
            nfa.peak_memory_bits(),
            frontier.total_peak_bits()
        );
    }

    println!("\n== buffer-everything vs streaming on growing documents ==");
    println!(
        "{:>8} {:>16} {:>16}",
        "|D|", "buffer-all bits", "frontier bits"
    );
    let query = parse_query("//item[price > 100]").unwrap();
    let streaming = Engine::builder().query(query.clone()).build().unwrap();
    // The strawman buffers the stream a session's filter sees: the
    // engine's lookup-only tokenizer, so names outside the query
    // vocabulary (`catalog`) arrive collapsed to one sentinel name.
    let names = streaming.symbols();
    let mut tokenizer = StreamingParser::with_symbols(Arc::clone(names)).lookup_only();
    let mut scratch = AttrBuf::new();
    for n in [10usize, 100, 1000, 10000] {
        let body: String = (0..n)
            .map(|i| format!("<item><price>{}</price></item>", i % 200))
            .collect();
        let xml = format!("<catalog>{body}</catalog>");
        let mut buffering = BufferingFilter::new(&query);
        tokenizer.reset();
        tokenizer
            .drive_batched(xml.as_bytes(), &mut |batch| {
                batch.replay(&mut scratch, |ev, _| buffering.process(&ev.to_owned(names)))
            })
            .unwrap();
        let b = streaming.run_str(&xml).unwrap();
        assert_eq!(buffering.verdict(), Some(b.any()));
        println!(
            "{n:>8} {:>16} {:>16}",
            buffering.peak_memory_bits(),
            b.total_peak_bits()
        );
    }
    println!("\n(the frontier filter's state is flat in |D| — Theorem 8.8 in action)");
}
