//! # fx-engine
//!
//! The canonical public API of the `frontier-xpath` workspace: a
//! *true-streaming* engine for evaluating banks of Forward XPath filters
//! over XML documents in the near-optimal memory of
//! *Bar-Yossef, Fontoura, Josifovski — On the Memory Requirements of
//! XPath Evaluation over XML Streams* (PODS 2004 / JCSS 2007).
//!
//! The paper's contribution is that filtering needs only
//! `O(FS(Q)·log d)` bits — so the engine's surface never requires a
//! materialized `Vec<Event>`. Documents arrive either event-by-event
//! through [`Session::push`] or straight from any [`std::io::Read`]
//! through [`Session::run_reader`], whose tokenizer hands the filters
//! each event as it completes — borrowed from the read buffer, nothing
//! materialized in between — so memory stays bounded by the read buffer
//! plus the filter state regardless of document size.
//!
//! ## Quick start
//!
//! ```
//! use fx_engine::Engine;
//!
//! let engine = Engine::builder()
//!     .query_str("/a[c[.//e and f] and b > 5]")
//!     .build()
//!     .unwrap();
//!
//! // Stream a document from any `io::Read` — never materialized.
//! let xml = "<a><c><e/><f/></c><b>6</b></a>";
//! let verdicts = engine.session().run_reader(xml.as_bytes()).unwrap();
//! assert!(verdicts.any());
//! ```
//!
//! ## Selection: streaming `FULLEVAL`, not just a verdict
//!
//! A [`Mode::Select`] engine performs the paper's §1 full-evaluation
//! extension: alongside the verdicts it emits one [`Match`] per node
//! `FULLEVAL(Q, D)` selects — with the element's document-order
//! ordinal and its source byte [`fx_xml::Span`] — *the moment the
//! frontier resolves its ancestor chain*, not at end-of-document.
//! Deliver them to your own [`MatchSink`] (any `FnMut(Match)` closure
//! works) or collect them:
//!
//! ```
//! use fx_engine::{Engine, Match, Mode};
//!
//! let engine = Engine::builder()
//!     .query_str("//item[price > 300]/name")
//!     .mode(Mode::Select)
//!     .build()
//!     .unwrap();
//!
//! let xml = "<r><item><price>400</price><name>gold</name></item>\
//!            <item><price>10</price><name>tin</name></item></r>";
//!
//! // Sink-driven: matches arrive as they are confirmed, mid-stream.
//! let mut names = Vec::new();
//! let mut session = engine.session();
//! session
//!     .run_reader_to(xml.as_bytes(), &mut |m: Match| {
//!         names.push(m.span.slice(xml).unwrap().to_string());
//!     })
//!     .unwrap();
//! assert_eq!(names, ["<name>gold</name>"]);
//!
//! // Or collected: the one-shot Outcome face of the same machinery.
//! let outcome = engine.select_str(xml).unwrap();
//! assert_eq!(outcome.total_matches(), 1);
//! assert_eq!(outcome.ordinals(0), vec![3]); // r=0 item=1 price=2 name=3
//! ```
//!
//! The only extra memory over pure filtering is the set of *unresolved*
//! candidate matches (tracked by [`Verdicts::peak_pending_positions`]),
//! which the paper's follow-up work (\[5\]) proves unavoidable for
//! full-fledged evaluation; matches in already-resolved subtrees are
//! emitted immediately and never buffered.
//!
//! ## Multi-query dissemination
//!
//! The XFilter-style selective-dissemination workload (\[1\] in the
//! paper) registers many standing queries and streams each arriving
//! document through all of them at once:
//!
//! ```
//! use fx_engine::Engine;
//! use fx_xpath::parse_query;
//!
//! let engine = Engine::builder()
//!     .queries(["/doc[title]", "/doc[price > 100]"].iter().map(|s| parse_query(s).unwrap()))
//!     .build()
//!     .unwrap();
//! let mut session = engine.session();
//! for xml in ["<doc><title>t</title></doc>", "<doc><price>150</price></doc>"] {
//!     let verdicts = session.run_reader(xml.as_bytes()).unwrap();
//!     assert_eq!(verdicts.matching().count(), 1);
//! }
//! ```
//!
//! In `Select` mode the bank stamps every match with the index of the
//! query that selected it, so one pass fans confirmed matches out to
//! per-query subscribers.
//!
//! For *large overlapping* banks, add
//! `.index(`[`IndexPolicy::SharedPrefix`]`)`: common predicate-free
//! query prefixes are canonicalized and merged into a trie evaluated
//! once per event ([`fx_core::IndexedBank`]), so per-event work scales
//! with the activated part of the bank instead of its size — same
//! verdicts, same routed matches, sublinear cost on dissemination
//! workloads.
//!
//! ## Layering
//!
//! | Piece | Role |
//! |---|---|
//! | [`Engine`] / [`EngineBuilder`] | Compiles and validates a query bank for a [`Mode`] and an [`IndexPolicy`] (all four combinations are legal) |
//! | [`Session`] | Per-document (reusable) evaluation state: `push` / `finish` / `run_reader`, plus the `_to` sink-driven variants |
//! | [`Verdicts`] / [`Outcome`] | Per-query outcomes (and match lists) plus the paper's logical-memory measures |
//! | [`Match`] / [`MatchSink`] | The incremental selection output surface (`Vec<Match>` is the collecting sink) |
//! | [`EngineError`] | One `std::error::Error` for everything the above can reject |
//!
//! The engine runs the paper's §8 frontier algorithm and nothing else:
//! a single-query filtering session drives one concrete
//! [`fx_core::StreamFilter`], every other session a
//! [`fx_core::MultiFilter`] or [`fx_core::IndexedBank`]. The paper's
//! §1.2 baselines (NFA, lazy DFA, buffer-everything) live in
//! `fx-automata`, which this crate does not link.

#![warn(missing_docs)]

mod builder;
mod error;
mod session;
mod sharded;

pub use builder::{Engine, EngineBuilder, IndexPolicy, Mode};
pub use error::EngineError;
pub use fx_core::{IndexSpaceStats, Match, MatchSink};
pub use session::{Outcome, Session, Verdicts};
