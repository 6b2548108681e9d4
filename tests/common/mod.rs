//! Helpers the integration suites share (`mod common;` in each). A
//! suite uses some and not others, hence the blanket `dead_code`.
#![allow(dead_code)]

use frontier_xpath::dom::{Document, NodeKind};
use frontier_xpath::engine::{Engine, IndexPolicy, Mode};
use frontier_xpath::eval::full_eval;
use frontier_xpath::filter::{IndexedBank, Match, MatchSink, MultiFilter};
use frontier_xpath::xml::{AttrBuf, Event, Span, SymCache, SymEvent, Symbols};
use frontier_xpath::xpath::{parse_query, Query};
use std::sync::Arc;

/// Case-count knob for the suites' proptests: CI pins a small count by
/// exporting `FX_PROPTEST_CASES` (and cranks it under checked
/// arithmetic); local runs omit it for `default`. Cases stay
/// seeded/deterministic — the knob changes how many run, never which.
pub fn fx_cases(default: u32) -> u32 {
    std::env::var("FX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `FULLEVAL(Q, D)` ground truth, translated to element ordinals
/// (0-based positions among `startElement` events = document order).
pub fn expected_ordinals(q: &Query, d: &Document) -> Vec<u64> {
    let elements: Vec<_> = d
        .all_nodes()
        .filter(|&n| d.kind(n) == NodeKind::Element)
        .collect();
    let mut out: Vec<u64> = full_eval(q, d)
        .unwrap()
        .into_iter()
        .map(|n| {
            elements
                .iter()
                .position(|&e| e == n)
                .expect("selected nodes are elements") as u64
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Every shape of session the engine builds, by label: the three
/// `SessionInner` variants × filter/select.
pub fn session_shapes() -> Vec<(&'static str, Engine)> {
    use {IndexPolicy::SharedPrefix, Mode::*};
    let (one, two) = (["//a[b > 5]"], ["//a[b > 5]", "//x//b"]);
    let flat = IndexPolicy::None;
    let shapes: [(&str, &[&str], Mode, IndexPolicy); 6] = [
        ("single filter", &one, Filter, flat),
        ("single select", &one, Select, flat),
        ("bank", &two, Filter, flat),
        ("bank select", &two, Select, flat),
        ("indexed", &two, Filter, SharedPrefix),
        ("indexed select", &two, Select, SharedPrefix),
    ];
    let build = |(label, srcs, mode, index): (_, &[&str], _, _)| {
        let queries = srcs.iter().map(|s| parse_query(s).unwrap());
        let builder = Engine::builder().queries(queries).mode(mode);
        (label, builder.index(index).build().unwrap())
    };
    shapes.into_iter().map(build).collect()
}

/// What a session feeds either bank: interned events, their syms
/// issued by the bank's own table.
pub trait Bank {
    fn table(&self) -> Arc<Symbols>;
    fn feed_sym(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink);
}

impl Bank for IndexedBank {
    fn table(&self) -> Arc<Symbols> {
        Arc::clone(self.symbols())
    }

    fn feed_sym(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        self.process_sym_to(event, span, sink)
    }
}

impl Bank for MultiFilter {
    fn table(&self) -> Arc<Symbols> {
        Arc::clone(self.symbols())
    }

    fn feed_sym(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        self.process_sym_to(event, span, sink)
    }
}

/// Feeds owned fixture events with their spans to `bank`, interning
/// each once against the bank's table — as a session interns a pushed
/// event — and routes the matches they confirm to `sink`.
pub fn feed_to<'e>(
    bank: &mut impl Bank,
    events: impl IntoIterator<Item = (&'e Event, Span)>,
    sink: &mut dyn MatchSink,
) {
    let symbols = bank.table();
    let (mut attrs, mut names) = (AttrBuf::new(), SymCache::new());
    for (event, span) in events {
        bank.feed_sym(attrs.sym_event(&mut names, &symbols, event), span, sink);
    }
}

/// [`feed_to`] without spans, dropping the matches.
pub fn feed(bank: &mut impl Bank, events: &[Event]) {
    feed_to(
        bank,
        events.iter().map(|e| (e, Span::EMPTY)),
        &mut |_: Match| {},
    );
}
