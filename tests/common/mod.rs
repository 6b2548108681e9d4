//! Helpers the integration suites share (`mod common;` in each). A
//! suite uses some and not others, hence the blanket `dead_code`.
#![allow(dead_code)]

use frontier_xpath::dom::{Document, NodeKind};
use frontier_xpath::engine::{Engine, EngineError, IndexPolicy, Mode, Outcome, Session};
use frontier_xpath::eval::full_eval;
use frontier_xpath::filter::{CompiledQuery, Evaluator, Match, MatchSink};
use frontier_xpath::xml::{AttrBuf, Event, EventSource, Span, SymCache};
use frontier_xpath::xpath::{parse_query, Query};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::io::Read;
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

/// Feeds owned fixture events with their spans to `bank` (either bank,
/// or a lone filter), interning each once against its table — as a
/// session interns a pushed event — and routes the matches they confirm
/// to `sink`.
pub fn feed_to<'e>(
    bank: &mut impl Evaluator,
    events: impl IntoIterator<Item = (&'e Event, Span)>,
    sink: &mut dyn MatchSink,
) {
    let symbols = Arc::clone(bank.symbols());
    let (mut attrs, mut names) = (AttrBuf::new(), SymCache::new());
    for (event, span) in events {
        bank.event(attrs.sym_event(&mut names, &symbols, event), span, sink);
    }
}

/// [`feed_to`] without spans, dropping the matches.
pub fn feed(bank: &mut impl Evaluator, events: &[Event]) {
    feed_to(
        bank,
        events.iter().map(|e| (e, Span::EMPTY)),
        &mut |_: Match| {},
    );
}

/// `Session::run_reader_to` into a `Vec`, grouped per query.
pub fn run_reader_outcome(
    session: &mut Session,
    reader: impl Read,
) -> Result<Outcome, EngineError> {
    let mut matches = Vec::new();
    let verdicts = session.run_reader_to(reader, &mut matches)?;
    Ok(Outcome::new(verdicts, matches))
}

/// `Session::run_source_to` into a `Vec`, grouped per query.
pub fn run_source_outcome(
    session: &mut Session,
    source: &mut dyn EventSource,
    reader: impl Read,
) -> Result<Outcome, EngineError> {
    let mut matches = Vec::new();
    let verdicts = session.run_source_to(source, reader, &mut matches)?;
    Ok(Outcome::new(verdicts, matches))
}

/// A routed match as `(query, ordinal, span start, span end)`: its
/// whole observable content.
pub type MatchKey = (usize, u64, u64, u64);

/// Match streams in a canonical order, so routing, duplication, loss
/// and span corruption all fail loudly.
fn sorted(keys: impl Iterator<Item = MatchKey>) -> Vec<MatchKey> {
    let mut v: Vec<MatchKey> = keys.collect();
    v.sort_unstable();
    v
}

/// A match stream, order-normalized.
pub fn normalize(matches: &[Match]) -> Vec<MatchKey> {
    sorted(
        matches
            .iter()
            .map(|m| (m.query, m.ordinal, m.span.start, m.span.end)),
    )
}

/// [`normalize`] with bank slots translated to stable per-subscription
/// positions; a match routed to a dead or unknown slot panics.
pub fn normalize_routed(matches: &[Match], slot_to_pos: &[Option<usize>]) -> Vec<MatchKey> {
    sorted(matches.iter().map(|m| {
        let pos = (slot_to_pos.get(m.query).copied().flatten())
            .unwrap_or_else(|| panic!("match routed to dead or unknown slot {}", m.query));
        (pos, m.ordinal, m.span.start, m.span.end)
    }))
}

/// An [`Outcome`]'s per-query match streams as one normalized stream.
pub fn normalize_outcome(outcome: &Outcome, queries: usize) -> Vec<MatchKey> {
    sorted((0..queries).flat_map(|q| {
        (outcome.matches(q).iter()).map(move |m| (q, m.ordinal, m.span.start, m.span.end))
    }))
}

// ------------------------------------------------------ random inputs

/// Names documents and queries share, names only documents use, names
/// only queries use: the vocabulary of [`random_query`] and
/// [`random_xml`].
pub const SHARED: &[&str] = &["a", "b", "c", "d", "e", "x"];
pub const DOC_ONLY: &[&str] = &["w", "zz"];
pub const QUERY_ONLY: &[&str] = &["q0", "q1", "q2"];

/// A random node test: mostly a shared name, sometimes `*` or a name
/// no document uses.
pub fn step_name(rng: &mut SmallRng) -> &'static str {
    match rng.gen_range(0..20) {
        0..=1 => "*",
        2..=3 => QUERY_ONLY.choose(rng).unwrap(),
        _ => SHARED.choose(rng).unwrap(),
    }
}

/// A random predicate conjunct of the supported fragment.
pub fn random_conjunct(rng: &mut SmallRng) -> String {
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
pub fn random_query(rng: &mut SmallRng) -> Query {
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

/// Appends one random element (and its subtree) at `depth` to `out`.
pub fn random_element(rng: &mut SmallRng, depth: usize, out: &mut String) {
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

/// A random document over [`SHARED`] and [`DOC_ONLY`] names, at most
/// seven levels deep, with attributes `k` and `a`.
pub fn random_xml(rng: &mut SmallRng) -> String {
    let mut out = String::new();
    random_element(rng, 0, &mut out);
    out
}
