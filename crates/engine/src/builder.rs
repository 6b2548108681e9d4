//! [`Engine`] and its builder: compile-once, stream-many query banks.

use crate::error::EngineError;
use crate::session::{Outcome, Session, SessionInner, Verdicts};
use fx_core::{CompiledQuery, IndexedBank, MultiFilter, StreamFilter};
use fx_xml::Symbols;
use fx_xpath::{parse_query, Query};
use std::sync::Arc;

/// What a built [`Engine`] produces for each document.
///
/// | Mode | Output | Extra memory over filtering |
/// |---|---|---|
/// | `Filter` | boolean [`Verdicts`] only | none — the paper's `O(FS(Q)·log d)` bits |
/// | `Select` | verdicts **plus** a stream of [`crate::Match`]es | the unresolved-candidate buffer the paper's follow-up (\[5\]) proves unavoidable |
///
/// In `Select` mode every confirmed output node of `FULLEVAL(Q, D)` is
/// delivered to a [`crate::MatchSink`] the moment its ancestor chain
/// resolves — before the rest of the document streams — with its
/// document-order ordinal and source byte [`fx_xml::Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Boolean filtering (the default): `BOOLEVAL_Q` per query.
    #[default]
    Filter,
    /// Full-fledged evaluation: incremental `FULLEVAL_Q` match streams
    /// alongside the verdicts.
    Select,
}

/// How a multi-query [`Engine`] organizes its bank.
///
/// | Policy | Per-event cost | When to use |
/// |---|---|---|
/// | `None` | one independent filter per query, an event delivered to those whose query names its element (`fx_core::MultiFilter`) | small banks, maximal per-query statistics fidelity |
/// | `SharedPrefix` | O(shared trie records + live residual instances) | large banks of overlapping queries (dissemination) |
///
/// `SharedPrefix` canonicalizes each query's step chain
/// (`fx_xpath::canonical::canonical_steps`), shares the evaluation of common
/// predicate-free prefixes in one trie walked once per event, and keeps
/// per-query state only below *activated* divergence points — see
/// [`fx_core::IndexedBank`]. Verdicts and routed matches are identical
/// to the naive bank (proven by `tests/indexed_differential.rs`); only
/// the work sharing differs.
///
/// Two further sharing layers ride on the index. **Shared residuals**:
/// the remainder of a query below its prefix is compiled once per
/// *canonical residual form*
/// (`fx_xpath::canonical::canonical_residual_key`) and held behind an
/// `Arc`, shared across all groups whose remainders render identically
/// — even groups on different trie paths — so
/// activating a divergence point spawns an instance with a refcount
/// bump, never a recompilation or deep clone. **Attributed space**: the
/// shared trie's and each group's peak bits are split evenly across
/// their sharers into [`crate::Verdicts::peak_memory_bits`], summing exactly to
/// the bank total, so indexed and naive sessions report comparable
/// per-query space; the bank-level breakdown (shared-trie bits, residual
/// bits, activation rate, pool size) is on
/// [`crate::Session::index_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IndexPolicy {
    /// One independent [`StreamFilter`] per query (the default).
    #[default]
    None,
    /// The shared-prefix indexed bank ([`fx_core::IndexedBank`]).
    SharedPrefix,
}

/// Builds an [`Engine`]: accumulate queries, pick a [`Mode`] and an
/// [`IndexPolicy`] — every combination is legal — then
/// [`EngineBuilder::build`] validates every query up front so sessions
/// can be spawned infallibly.
#[derive(Debug, Default)]
#[must_use = "builders do nothing until `.build()` is called"]
pub struct EngineBuilder {
    queries: Vec<Query>,
    mode: Mode,
    index: IndexPolicy,
    /// First query-string parse failure, surfaced at `build()` so the
    /// fluent chain stays ergonomic.
    deferred: Option<EngineError>,
}

impl EngineBuilder {
    /// Registers one parsed query.
    pub fn query(mut self, q: Query) -> EngineBuilder {
        self.queries.push(q);
        self
    }

    /// Registers a query from XPath source text; a parse failure is
    /// reported by `build()` with this query's index.
    pub fn query_str(mut self, src: &str) -> EngineBuilder {
        match parse_query(src) {
            Ok(q) => self.queries.push(q),
            Err(source) => {
                if self.deferred.is_none() {
                    self.deferred = Some(EngineError::QueryParse {
                        index: self.queries.len(),
                        source,
                    });
                }
            }
        }
        self
    }

    /// Registers many parsed queries.
    pub fn queries(mut self, qs: impl IntoIterator<Item = Query>) -> EngineBuilder {
        self.queries.extend(qs);
        self
    }

    /// Selects what the engine produces (default: [`Mode::Filter`]).
    /// [`Mode::Select`] additionally streams confirmed matches.
    pub fn mode(mut self, mode: Mode) -> EngineBuilder {
        self.mode = mode;
        self
    }

    /// Shorthand for `.mode(Mode::Select)`.
    pub fn select(self) -> EngineBuilder {
        self.mode(Mode::Select)
    }

    /// Selects how the multi-query bank is organized (default:
    /// [`IndexPolicy::None`]). [`IndexPolicy::SharedPrefix`] makes
    /// per-event work scale with the *activated* part of the bank
    /// instead of its size.
    pub fn index(mut self, policy: IndexPolicy) -> EngineBuilder {
        self.index = policy;
        self
    }

    /// Validates every query against the chosen mode, and compiles what
    /// can be compiled ahead of time.
    pub fn build(self) -> Result<Engine, EngineError> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        if self.queries.is_empty() {
            return Err(EngineError::NoQueries);
        }
        // One symbol table per engine: queries compile against it, the
        // indexed bank's trie resolves against it, and every session's
        // parser interns document names into it — so events and node
        // tests meet as equal integers with no per-event conversion.
        // Compilation (either arm below) interns every node-test name of
        // every query, which is the invariant the lookup-only frontends
        // (`Engine::html_source`, `Session::run_source`) rely on: a name
        // missing from the table cannot be part of any query.
        let symbols = Arc::new(Symbols::new());
        let mut compiled = Vec::new();
        let indexed = match self.index {
            IndexPolicy::None => {
                for (index, q) in self.queries.iter().enumerate() {
                    let c = CompiledQuery::compile_with(q, Arc::clone(&symbols))
                        .map_err(|source| EngineError::Unsupported { index, source })?;
                    if self.mode == Mode::Select {
                        c.reporting_supported()
                            .map_err(|source| EngineError::Unsupported { index, source })?;
                    }
                    compiled.push(Arc::new(c));
                }
                None
            }
            // The indexed bank is the sole compiler/validator of its
            // queries (it checks them in order, with the same error
            // indices) and is built once here — trie construction plus
            // residual compilation; every session shares its index and
            // never reads `compiled`.
            IndexPolicy::SharedPrefix => Some(
                if self.mode == Mode::Select {
                    IndexedBank::new_reporting_with_symbols(&self.queries, Arc::clone(&symbols))
                } else {
                    IndexedBank::new_with_symbols(&self.queries, Arc::clone(&symbols))
                }
                .map_err(|(index, source)| EngineError::Unsupported { index, source })?,
            ),
        };
        Ok(Engine {
            queries: self.queries,
            compiled,
            mode: self.mode,
            indexed,
            symbols,
        })
    }
}

/// A compiled, validated bank of streaming XPath filters.
///
/// The engine itself is immutable and cheaply shareable across
/// threads; all per-document state lives in the [`Session`]s it spawns.
#[derive(Debug, Clone)]
pub struct Engine {
    queries: Vec<Query>,
    /// Pre-compiled forms ([`IndexPolicy::None`] only), behind `Arc` so
    /// spawning a session is a reference-count bump per query —
    /// compiled state is pooled across every session of this engine,
    /// never cloned.
    compiled: Vec<Arc<CompiledQuery>>,
    mode: Mode,
    /// The shared-prefix bank prototype ([`IndexPolicy::SharedPrefix`]
    /// only): trie and residuals prebuilt. A session's bank is a clone,
    /// which shares the prototype's index — one refcount bump, whatever
    /// the number of queries — and owns only its per-document run.
    indexed: Option<IndexedBank>,
    /// The engine-wide symbol table (see [`Engine::symbols`]).
    symbols: Arc<Symbols>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries are registered (unreachable via the builder,
    /// which rejects empty banks).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The configured output mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configured bank organization.
    pub fn index_policy(&self) -> IndexPolicy {
        if self.indexed.is_some() {
            IndexPolicy::SharedPrefix
        } else {
            IndexPolicy::None
        }
    }

    /// The registered queries, in registration order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The engine-wide symbol table: every compiled node test is a sym
    /// from it, and every session's reader path resolves document names
    /// against it (lookup-only — it holds the query vocabulary and never
    /// grows with document content). Hand it to a frontend's
    /// `with_symbols(..).lookup_only()` when driving a session through
    /// [`Session::run_source`], so events arrive pre-interned and the
    /// evaluators skip per-event name lookups.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Opens a session: the mutable per-document evaluation state. A
    /// session may be reused for many documents in sequence (each
    /// `StartDocument` resets the filters), which is how the
    /// dissemination workload amortizes setup.
    pub fn session(&self) -> Session {
        let inner = if let Some(proto) = &self.indexed {
            // A clone of the prebuilt shared-prefix bank (filtering or
            // reporting per the mode): a fresh run over the one shared
            // index.
            SessionInner::Indexed(Box::new(proto.clone()))
        } else if let [only] = self.compiled.as_slice() {
            // A single-query session keeps the bare filter, so its space
            // statistics stay bit-for-bit a bare `StreamFilter` run's (a
            // bank of one freezes them at an early root reject), and its
            // reader path passes over what lies past the filter's
            // horizon.
            let only = Arc::clone(only);
            SessionInner::Single(Box::new(match self.mode {
                Mode::Filter => StreamFilter::from_shared(only),
                Mode::Select => StreamFilter::from_shared_reporting(only)
                    .expect("reporting support validated at build()"),
            }))
        } else if self.mode == Mode::Select {
            // Selection runs on a reporting bank: the bank stamps every
            // confirmed match with its query index and routes it to the
            // caller's sink.
            SessionInner::Bank(Box::new(
                MultiFilter::from_shared_reporting(self.compiled.iter().map(Arc::clone))
                    .expect("reporting support validated at build()"),
            ))
        } else {
            SessionInner::Bank(Box::new(MultiFilter::from_shared(
                self.compiled.iter().map(Arc::clone),
            )))
        };
        // Whichever arm, the compiled queries are pooled behind `Arc`:
        // spawning a session never recompiles or deep-clones them.
        Session::new(inner, self.mode, Arc::clone(&self.symbols))
    }

    /// One-shot convenience over an in-memory XML string, *streamed*
    /// through a fresh session's [`Session::run_reader`], not
    /// materialized into events. Use [`Engine::session`] directly to
    /// amortize session setup over many documents.
    pub fn run_str(&self, xml: &str) -> Result<Verdicts, EngineError> {
        self.session().run_reader(xml.as_bytes())
    }

    /// One-shot selection: streams an in-memory XML string (never
    /// materialized into events) through a fresh session and returns
    /// the full [`Outcome`] — verdicts plus the per-query match lists.
    /// Meaningful on a [`Mode::Select`] engine; a filtering engine
    /// returns empty match lists.
    ///
    /// To consume matches *as they are confirmed* (rather than gathered
    /// at the end), open a session and use
    /// [`Session::run_reader_to`] with your own [`crate::MatchSink`].
    pub fn select_str(&self, xml: &str) -> Result<Outcome, EngineError> {
        self.session().select(xml.as_bytes())
    }

    /// An HTML-soup frontend bound to this engine: a lenient
    /// [`fx_html::HtmlParser`] sharing the engine's symbol table in
    /// lookup-only mode, so document names outside the query vocabulary
    /// never grow the table. Reuse it across documents with
    /// [`Session::run_source`] to keep its scratch buffers warm.
    pub fn html_source(&self) -> fx_html::HtmlParser {
        fx_html::HtmlParser::with_symbols(Arc::clone(&self.symbols)).lookup_only()
    }

    /// A streaming-JSON frontend bound to this engine: an
    /// [`fx_json::JsonParser`] sharing the engine's symbol table in
    /// lookup-only mode (see [`Engine::html_source`]).
    pub fn json_source(&self) -> fx_json::JsonParser {
        fx_json::JsonParser::with_symbols(Arc::clone(&self.symbols)).lookup_only()
    }

    /// A newline-delimited-JSON frontend bound to this engine: an
    /// [`fx_json::NdjsonParser`] sharing the engine's symbol table in
    /// lookup-only mode. The stream is a *document sequence* — each
    /// non-blank line is framed as its own document — so drive it
    /// through a reused session ([`Session::run_source`]) and the
    /// session's verdicts reflect the **last** record, while match
    /// sinks see **every** record's matches,
    /// with stream-global spans that slice the original NDJSON input.
    pub fn ndjson_source(&self) -> fx_json::NdjsonParser {
        fx_json::NdjsonParser::with_symbols(Arc::clone(&self.symbols)).lookup_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_per_backend() {
        // Twig queries compile…
        let e = Engine::builder().query_str("/a[b and c]").build().unwrap();
        assert_eq!(e.len(), 1);

        // …and non-streamable queries are rejected with their index.
        let err = Engine::builder()
            .query_str("/a[b]")
            .query_str("/a[not(b)]")
            .build()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Unsupported { index: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn selection_mode_validates_backend_and_output() {
        // Selection needs an element output node (attributes carry no
        // element ordinal), reported with the query's index.
        let err = Engine::builder()
            .query_str("/a/b")
            .query_str("/a/@id")
            .select()
            .build()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Unsupported { index: 1, .. }),
            "{err}"
        );

        // A valid selection bank reports its mode.
        let e = Engine::builder()
            .query_str("//a[b]/c")
            .select()
            .build()
            .unwrap();
        assert_eq!(e.mode(), Mode::Select);
        assert_eq!(e.session().mode(), Mode::Select);
    }

    #[test]
    fn every_mode_and_policy_cell_is_legal_and_agrees() {
        let srcs = [
            "/doc[title and @lang]/item",
            "//item[price > 100]/name",
            "/doc/item",
        ];
        let docs = [
            "<doc lang=\"en\"><title/><item><price>150</price><name>n</name></item></doc>",
            "<doc><item></doc>",
            "<doc><item/></doc>",
        ];
        let mut per_cell = Vec::new();
        for mode in [Mode::Filter, Mode::Select] {
            for policy in [IndexPolicy::None, IndexPolicy::SharedPrefix] {
                let engine = Engine::builder()
                    .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
                    .mode(mode)
                    .index(policy)
                    .build()
                    .unwrap();
                assert_eq!((engine.mode(), engine.index_policy()), (mode, policy));
                // Compilation interned the whole query vocabulary, which
                // is what lets the lookup-only frontends collapse every
                // other name.
                let names = engine.symbols().snapshot();
                for q in engine.queries() {
                    for id in q.all_nodes() {
                        if let Some(fx_xpath::NodeTest::Name(n)) = q.ntest(id) {
                            assert!(names.lookup(n).is_some(), "{mode:?}/{policy:?}: {n}");
                        }
                    }
                }
                let mut session = engine.session();
                assert_eq!(session.mode(), mode);
                let mut verdicts = Vec::new();
                for xml in docs {
                    match session.run_reader(xml.as_bytes()) {
                        Ok(v) => {
                            // A reused session reads like a fresh one,
                            // also right after a malformed document.
                            assert_eq!(v.matched(), engine.run_str(xml).unwrap().matched());
                            verdicts.push(Some(v.matched().to_vec()));
                        }
                        Err(e) => {
                            assert!(matches!(e, EngineError::Parse(_)), "{e}");
                            verdicts.push(None);
                        }
                    }
                }
                per_cell.push(verdicts);
            }
        }
        assert_eq!(
            per_cell[0],
            [
                Some(vec![true, true, true]),
                None,
                Some(vec![false, false, true])
            ]
        );
        assert!(per_cell.iter().all(|v| *v == per_cell[0]));
    }

    #[test]
    fn a_lone_filter_session_reads_a_bare_filters_bits() {
        // `/a[b and c]` is rejected at the root tag `<c>`: a bank of one
        // would freeze the peak there, the bare filter keeps counting.
        let q = fx_xpath::parse_query("/a[b and c]").unwrap();
        let xml = "<c><a><b/><c/></a><a><b/></a></c>";
        let events = fx_xml::parse(xml).unwrap();
        let mut bare = StreamFilter::new(&q).unwrap();
        assert_eq!(bare.run_stream(&events), Some(false));
        let expected = [bare.stats().max_bits];

        let engine = Engine::builder().query(q).build().unwrap();
        let mut session = engine.session();
        for e in &events {
            session.push(e);
        }
        assert_eq!(session.finish().unwrap().peak_memory_bits(), expected);
        // The reader path hands the filter interned events directly.
        let read = session.run_reader(xml.as_bytes()).unwrap();
        assert_eq!(read.matched(), [false]);
        assert_eq!(read.peak_memory_bits(), expected);
    }

    #[test]
    fn indexed_sessions_agree_with_naive_sessions() {
        let srcs = [
            "/site/regions/asia/item",
            "/site/regions/asia/item[price > 100]",
            "/site/regions/europe/item",
            "/doc[title]",
        ];
        let naive = Engine::builder()
            .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
            .build()
            .unwrap();
        let indexed = Engine::builder()
            .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
            .index(IndexPolicy::SharedPrefix)
            .build()
            .unwrap();
        assert_eq!(indexed.index_policy(), IndexPolicy::SharedPrefix);
        assert_eq!(naive.index_policy(), IndexPolicy::None);
        let mut s1 = naive.session();
        let mut s2 = indexed.session();
        for xml in [
            "<site><regions><asia><item><price>150</price></item></asia></regions></site>",
            "<doc><title>t</title></doc>",
            "<other/>",
        ] {
            let v1 = s1.run_reader(xml.as_bytes()).unwrap();
            let v2 = s2.run_reader(xml.as_bytes()).unwrap();
            assert_eq!(v1.matched(), v2.matched(), "{xml}");
        }
    }

    #[test]
    fn indexed_selection_routes_identical_matches() {
        let srcs = ["/doc/item", "//note"];
        let build = |policy| {
            Engine::builder()
                .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
                .select()
                .index(policy)
                .build()
                .unwrap()
        };
        let xml = "<doc><item/><note/><item/></doc>";
        let naive = build(IndexPolicy::None).select_str(xml).unwrap();
        let indexed = build(IndexPolicy::SharedPrefix).select_str(xml).unwrap();
        assert_eq!(naive.verdicts().matched(), indexed.verdicts().matched());
        for q in 0..srcs.len() {
            assert_eq!(naive.ordinals(q), indexed.ordinals(q), "query #{q}");
        }
    }

    #[test]
    fn builder_rejects_empty_and_bad_sources() {
        assert!(matches!(
            Engine::builder().build(),
            Err(EngineError::NoQueries)
        ));
        let err = Engine::builder().query_str("///").build().unwrap_err();
        assert!(
            matches!(err, EngineError::QueryParse { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn html_and_json_frontends_share_the_engine() {
        let e = Engine::builder().query_str("//li").build().unwrap();
        let before = e.symbols().len();
        let mut html = e.html_source();
        let v = e
            .session()
            .run_source(&mut html, "<UL><li>a<li>b</ul>".as_bytes())
            .unwrap();
        assert!(v.any());
        assert!(!e
            .session()
            .run_source(&mut html, "<p>no lists</p>".as_bytes())
            .unwrap()
            .any());
        // Lookup-only sources never grow the engine table, even over
        // documents full of names outside the query vocabulary.
        assert_eq!(e.symbols().len(), before);

        let e = Engine::builder()
            .query_str("/json/user/name")
            .build()
            .unwrap();
        let (mut session, mut json) = (e.session(), e.json_source());
        assert!(session
            .run_source(&mut json, r#"{"user":{"name":"ada"}}"#.as_bytes())
            .unwrap()
            .any());
        assert!(!session
            .run_source(&mut json, r#"{"user":{"id":7}}"#.as_bytes())
            .unwrap()
            .any());
        // Malformed JSON is a parse error, not soup.
        assert!(matches!(
            session.run_source(&mut json, "{broken".as_bytes()),
            Err(EngineError::Parse(_))
        ));
    }

    #[test]
    fn frontend_selection_reports_source_spans() {
        let e = Engine::builder()
            .query_str("//li")
            .select()
            .build()
            .unwrap();
        let html = "<ul><li>a<li>b</ul>";
        let mut out: Vec<crate::Match> = Vec::new();
        let verdicts = e
            .session()
            .run_source_to(&mut e.html_source(), html.as_bytes(), &mut out)
            .unwrap();
        assert!(verdicts.matched()[0]);
        let spans: Vec<_> = out.iter().map(|m| m.span.slice(html).unwrap()).collect();
        // A match span covers the element from its start tag through
        // its (here implied) close.
        assert_eq!(spans, vec!["<li>a", "<li>b"]);

        let e = Engine::builder()
            .query_str("/json/tags")
            .select()
            .build()
            .unwrap();
        let mut out: Vec<crate::Match> = Vec::new();
        e.session()
            .run_source_to(
                &mut e.json_source(),
                r#"{"tags":[1,2,3]}"#.as_bytes(),
                &mut out,
            )
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn a_source_with_a_foreign_table_still_evaluates() {
        let e = Engine::builder().query_str("/json/a").build().unwrap();
        // An interning parser over its own table: syms are meaningless
        // to the engine, so the session makes each event owned through
        // the source's table and re-resolves it.
        let mut source = fx_json::JsonParser::new();
        let v = e
            .session()
            .run_source(&mut source, r#"{"a": 1}"#.as_bytes())
            .unwrap();
        assert!(v.any());
        assert!(!Arc::ptr_eq(source.symbols(), e.symbols()));
    }
}
