//! # frontier-xpath
//!
//! A complete Rust implementation of
//! *Bar-Yossef, Fontoura, Josifovski — On the Memory Requirements of XPath
//! Evaluation over XML Streams* (PODS 2004; JCSS 73(3), 2007): the
//! near-optimal streaming XPath filter of Section 8 **and** the paper's
//! memory lower bounds as executable, machine-checked constructions.
//!
//! ## Quick start
//!
//! The canonical entry point is the [`engine`]: build once, then stream
//! documents from any `io::Read` — no `Vec<Event>` is ever materialized,
//! so the paper's `O(FS(Q)·log d)`-bit guarantee holds end to end.
//!
//! ```
//! use frontier_xpath::prelude::*;
//! use frontier_xpath::analysis::frontier_size;
//! use frontier_xpath::lowerbounds::frontier_bound;
//!
//! // A bank of one Forward XPath query (the grammar of Fig. 1), on the
//! // paper's own algorithm…
//! let engine = Engine::builder()
//!     .query_str("/a[c[.//e and f] and b > 5]")
//!     .build()
//!     .unwrap();
//!
//! // …filtering a streaming document in O(FS(Q)·log d) bits.
//! let xml = "<a><c><e/><f/></c><b>6</b></a>";
//! let verdicts = engine.session().run_reader(xml.as_bytes()).unwrap();
//! assert!(verdicts.any());
//!
//! // The matching lower bound: FS(Q) = 3 bits are *necessary*.
//! let query = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
//! assert_eq!(frontier_size(&query), 3);
//! let bound = frontier_bound(&query, None).unwrap();
//! assert_eq!(bound.fooling.verify(&query).unwrap().bits, 3);
//! ```
//!
//! For multi-document workloads (selective dissemination), open one
//! [`engine::Session`] and reuse it:
//!
//! ```
//! use frontier_xpath::prelude::*;
//!
//! let engine = Engine::builder()
//!     .query_str("/doc[title]")
//!     .query_str("//section[figure and caption]")
//!     .build()
//!     .unwrap();
//! let mut session = engine.session();
//! let verdicts = session.run_reader("<doc><title>t</title></doc>".as_bytes()).unwrap();
//! assert_eq!(verdicts.matching().collect::<Vec<_>>(), vec![0]);
//! ```
//!
//! Beyond boolean filtering, a [`engine::Mode::Select`] engine performs
//! full-fledged evaluation: each node `FULLEVAL(Q, D)` selects is
//! delivered incrementally as a [`engine::Match`] — document-order
//! ordinal plus source byte [`xml::Span`] — the moment its ancestor
//! chain resolves:
//!
//! ```
//! use frontier_xpath::prelude::*;
//!
//! let engine = Engine::builder()
//!     .query_str("//item[price > 300]/name")
//!     .mode(Mode::Select)
//!     .build()
//!     .unwrap();
//! let xml = "<r><item><price>400</price><name>gold</name></item></r>";
//! let outcome = engine.select_str(xml).unwrap();
//! let m = outcome.matches(0)[0];
//! assert_eq!(m.span.slice(xml), Some("<name>gold</name>"));
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`engine`] | **The canonical API**: `Engine` builder, per-document `Session`s (`Mode` × `IndexPolicy`, every cell legal), unified `EngineError`; runs the §8 algorithm and nothing else |
//! | [`xml`] | SAX events, the [`xml::Frontend`] chassis every streaming tokenizer is a [`xml::Grammar`] on (and the [`xml::EventSource`] trait it implements), the XML grammar, writer, pull-based [`xml::EventIter`], stream splicing (§3.1.4) |
//! | [`html`] | The lenient HTML-soup grammar: tag soup in, the same interned events out |
//! | [`json`] | The JSON and NDJSON grammars: objects as elements, keys as QNames, array items as repeated children |
//! | [`dom`] | The XPath data model: trees, `STRVAL`, depth (§3.1.1) |
//! | [`xpath`] | Forward XPath parser, query trees, predicate semantics (§3.1.2–3); the query-only analyses the filter compiles with: truth sets (`truth`, Def. 5.6) and canonical query forms (`canonical`) |
//! | [`eval`] | Reference `SELECT`/`FULLEVAL`/`BOOLEVAL`, matchings (§3.1.3, §5.5) |
//! | [`analysis`] | Redundancy-free XPath, truth sets, canonical documents, `FS(Q)` (§4–6) |
//! | [`filter`] | **The Section-8 streaming filter** with space instrumentation |
//! | [`automata`] | NFA / lazy-DFA / buffer-all baselines (§1.2, §2), constructed directly — not engine options |
//! | [`lowerbounds`] | Fooling sets, DISJ reduction, depth bound, state prober (§3.2, §4, §7) |
//! | [`workloads`] | Seeded document/query generators |
//!
//! ## Legacy batch surface
//!
//! The pre-engine one-shot entry points — `StreamFilter::run(&query,
//! &events)` and `MultiFilter::process_all(&[Event])` — required the
//! caller to materialize the whole document as a `Vec<Event>`,
//! forfeiting the memory guarantee at the API boundary. They have been
//! removed: everything goes through [`engine::Engine`] now, and the
//! algorithm layer is driven event-at-a-time (`StreamFilter::process`).
//! Likewise `StreamFilter::matched_positions()` is only a thin wrapper
//! over the incremental [`engine::MatchSink`] machinery, reading
//! whatever matches were never drained.

#![warn(missing_docs)]

pub use fx_analysis as analysis;
pub use fx_automata as automata;
pub use fx_core as filter;
pub use fx_dom as dom;
pub use fx_engine as engine;
pub use fx_eval as eval;
pub use fx_html as html;
pub use fx_json as json;
pub use fx_lowerbounds as lowerbounds;
pub use fx_server as server;
pub use fx_workloads as workloads;
pub use fx_xml as xml;
pub use fx_xpath as xpath;

/// The one-stop import for applications.
pub mod prelude {
    pub use fx_analysis::{
        canonical_document, canonical_key, canonical_steps, frontier_size, path_recursion_depth,
        redundancy_free, text_width,
    };
    pub use fx_automata::{BufferingFilter, LazyDfaFilter, NfaFilter};
    pub use fx_core::{IndexSpaceStats, IndexedBank, MultiFilter, SpaceStats, StreamFilter};
    pub use fx_dom::Document;
    pub use fx_engine::{
        Engine, EngineBuilder, EngineError, IndexPolicy, Match, MatchSink, Mode, Outcome, Session,
        Verdicts,
    };
    pub use fx_eval::{bool_eval, document_matches, full_eval};
    pub use fx_html::{parse_html, HtmlParser};
    pub use fx_json::{parse_json, JsonParser, NdjsonParser};
    pub use fx_lowerbounds::{depth_bound, disj_segments, frontier_bound, probe_fooling_set};
    pub use fx_server::{Delivery, DisseminationServer, ServerConfig, ServerHandle, Subscription};
    pub use fx_xml::{parse as parse_xml, Event, EventIter, EventSource, Span};
    pub use fx_xpath::{parse_query, Query};
}
