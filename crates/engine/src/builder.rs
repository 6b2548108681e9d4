//! [`Engine`] and its builder: compile-once, stream-many query banks.

use crate::error::EngineError;
use crate::session::{Outcome, Session, SessionInner, Verdicts};
use fx_core::{CompiledQuery, IndexedBank, StreamFilter};
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
/// document-order ordinal and source byte [`fx_xml::Span`]. Selection
/// requires [`Backend::Frontier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Boolean filtering (the default): `BOOLEVAL_Q` per query.
    #[default]
    Filter,
    /// Full-fledged evaluation: incremental `FULLEVAL_Q` match streams
    /// alongside the verdicts.
    Select,
}

/// Which evaluation algorithm a built [`Engine`] runs.
///
/// All four implement [`crate::Evaluator`]; they differ in supported
/// fragment and in the memory/time trade-off the paper studies:
///
/// | Backend | Fragment | Memory |
/// |---|---|---|
/// | `Frontier` | univariate conjunctive Forward XPath | `O(|Q|·r·log d)` bits (Thm 8.8) — the paper's algorithm |
/// | `Nfa` | linear paths | `O(d·|Q|)` bits |
/// | `LazyDfa` | linear paths | up to `2^|Q|` transition-table states |
/// | `Buffering` | anything the reference evaluator handles | `Θ(|D|)` bits |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The paper's Section-8 frontier algorithm (the default).
    #[default]
    Frontier,
    /// Lazily-determinized DFA (Green et al. style).
    LazyDfa,
    /// NFA with a run-time stack of state sets (XFilter/YFilter style).
    Nfa,
    /// Buffer the document, evaluate at `EndDocument` (the strawman).
    Buffering,
}

/// How a multi-query [`Engine`] organizes its bank.
///
/// | Policy | Per-event cost | When to use |
/// |---|---|---|
/// | `None` | one independent filter per query, an event delivered to those whose query names its element (`fx_core::MultiFilter`) | small banks, maximal per-query statistics fidelity |
/// | `SharedPrefix` | O(shared trie records + live residual instances) | large banks of overlapping queries (dissemination) |
///
/// `SharedPrefix` canonicalizes each query's step chain
/// (`fx_analysis::canonical_steps`), shares the evaluation of common
/// predicate-free prefixes in one trie walked once per event, and keeps
/// per-query state only below *activated* divergence points — see
/// [`fx_core::IndexedBank`]. Verdicts and routed matches are identical
/// to the naive bank (proven by `tests/indexed_differential.rs`); only
/// the work sharing differs. Requires [`Backend::Frontier`].
///
/// Two further sharing layers ride on the index. **Shared residuals**:
/// the remainder of a query below its prefix is compiled once per
/// *canonical residual form* (`fx_analysis::canonical_residual_key`) and
/// held behind an `Arc`, shared across all groups whose remainders
/// render identically — even groups on different trie paths — so
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

/// Builds an [`Engine`]: accumulate queries, pick a [`Backend`], then
/// [`EngineBuilder::build`] validates everything up front so sessions
/// can be spawned infallibly.
#[derive(Debug, Default)]
#[must_use = "builders do nothing until `.build()` is called"]
pub struct EngineBuilder {
    queries: Vec<Query>,
    backend: Backend,
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

    /// Selects the evaluation backend (default: [`Backend::Frontier`]).
    pub fn backend(mut self, backend: Backend) -> EngineBuilder {
        self.backend = backend;
        self
    }

    /// Selects what the engine produces (default: [`Mode::Filter`]).
    /// [`Mode::Select`] additionally streams confirmed matches and
    /// requires [`Backend::Frontier`].
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
    /// instead of its size; it requires [`Backend::Frontier`].
    pub fn index(mut self, policy: IndexPolicy) -> EngineBuilder {
        self.index = policy;
        self
    }

    /// Validates every query against the chosen backend and mode, and
    /// compiles what can be compiled ahead of time.
    pub fn build(self) -> Result<Engine, EngineError> {
        if let Some(e) = self.deferred {
            return Err(e);
        }
        if self.queries.is_empty() {
            return Err(EngineError::NoQueries);
        }
        if self.mode == Mode::Select && self.backend != Backend::Frontier {
            return Err(EngineError::SelectionUnsupported {
                backend: self.backend,
            });
        }
        if self.index == IndexPolicy::SharedPrefix && self.backend != Backend::Frontier {
            return Err(EngineError::IndexUnsupported {
                backend: self.backend,
            });
        }
        // One symbol table per engine: queries compile against it, the
        // indexed bank's trie resolves against it, and every session's
        // parser interns document names into it — so events and node
        // tests meet as equal integers with no per-event conversion.
        let symbols = Arc::new(Symbols::new());
        // Seed the table with every query's name vocabulary up front,
        // for *all* backends — Frontier compilation would intern these
        // anyway, but the automata and buffering backends compile
        // nothing against the table, and the lookup-only frontends
        // (`Engine::html_source`, `Session::run_source`) rely on the
        // invariant that a name missing from the table cannot be part
        // of any query.
        for q in &self.queries {
            for id in q.all_nodes() {
                if let Some(fx_xpath::NodeTest::Name(n)) = q.ntest(id) {
                    symbols.intern(n);
                }
            }
        }
        let mut compiled = Vec::new();
        match self.backend {
            // Under IndexPolicy::SharedPrefix the indexed bank built
            // below is the sole compiler/validator (it checks every
            // query in order, with the same error indices), and indexed
            // sessions never read `compiled` — skip the duplicate pass.
            Backend::Frontier if self.index == IndexPolicy::None => {
                for (index, q) in self.queries.iter().enumerate() {
                    let c = CompiledQuery::compile_with(q, Arc::clone(&symbols))
                        .map_err(|source| EngineError::Unsupported { index, source })?;
                    if self.mode == Mode::Select {
                        c.reporting_supported()
                            .map_err(|source| EngineError::Unsupported { index, source })?;
                    }
                    compiled.push(Arc::new(c));
                }
            }
            Backend::Frontier => {}
            Backend::Nfa | Backend::LazyDfa => {
                for (index, q) in self.queries.iter().enumerate() {
                    let linear =
                        fx_automata::LinearPath::from_query(q).filter(|p| p.state_count() <= 128);
                    if linear.is_none() {
                        return Err(EngineError::BackendRequiresLinear {
                            index,
                            backend: self.backend,
                            query: fx_xpath::to_xpath(q),
                        });
                    }
                }
            }
            Backend::Buffering => {}
        }
        // The indexed bank is built once here (trie construction +
        // residual compilation); every session shares its index.
        let indexed = if self.index == IndexPolicy::SharedPrefix {
            let bank = if self.mode == Mode::Select {
                IndexedBank::new_reporting_with_symbols(&self.queries, Arc::clone(&symbols))
            } else {
                IndexedBank::new_with_symbols(&self.queries, Arc::clone(&symbols))
            }
            .map_err(|(index, source)| EngineError::Unsupported { index, source })?;
            Some(bank)
        } else {
            None
        };
        Ok(Engine {
            queries: self.queries,
            compiled,
            backend: self.backend,
            mode: self.mode,
            indexed,
            symbols,
        })
    }
}

/// A compiled, validated bank of streaming XPath filters.
///
/// The engine itself is immutable (and cheaply shareable across
/// threads for `Frontier`/`Buffering` backends); all per-document state
/// lives in the [`Session`]s it spawns.
#[derive(Debug, Clone)]
pub struct Engine {
    queries: Vec<Query>,
    /// Pre-compiled forms (Frontier backend only; other backends build
    /// their automata per session, which is cheap for linear paths),
    /// behind `Arc` so spawning a session is a reference-count bump per
    /// query — compiled state is pooled across every session of this
    /// engine, never cloned.
    compiled: Vec<Arc<CompiledQuery>>,
    backend: Backend,
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

    /// The prebuilt shared-prefix bank prototype, for the sharded
    /// runners ([`IndexPolicy::SharedPrefix`] engines only).
    pub(crate) fn indexed_proto(&self) -> Option<&IndexedBank> {
        self.indexed.as_ref()
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

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend
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
    /// dissemination workload amortizes setup — and how the `LazyDfa`
    /// backend keeps its memoized transition table warm across documents.
    pub fn session(&self) -> Session {
        // Indexed engines run every session on a clone of the prebuilt
        // shared-prefix bank (filtering or reporting per the mode): a
        // fresh run over the one shared index.
        if let Some(proto) = &self.indexed {
            return Session::new(
                SessionInner::Indexed(Box::new(proto.clone())),
                self.mode,
                Arc::clone(&self.symbols),
            );
        }
        // Selection sessions always run on a reporting bank (even with a
        // single query): the bank stamps every confirmed match with its
        // query index and routes it to the caller's sink. Spawning
        // shares the engine's compiled queries by reference — no clone.
        if self.mode == Mode::Select {
            let bank =
                fx_core::MultiFilter::from_shared_reporting(self.compiled.iter().map(Arc::clone))
                    .expect("reporting support validated at build()");
            return Session::new(
                SessionInner::Bank(Box::new(bank)),
                self.mode,
                Arc::clone(&self.symbols),
            );
        }
        // A multi-query Frontier session runs on the short-circuiting
        // bank; a single-query one keeps the bare filter so its space
        // statistics stay bit-for-bit identical to a legacy run. Either
        // way the compiled queries are pooled behind `Arc` — spawning a
        // session never recompiles or deep-clones them.
        if self.backend == Backend::Frontier && self.compiled.len() > 1 {
            return Session::new(
                SessionInner::Bank(Box::new(fx_core::MultiFilter::from_shared(
                    self.compiled.iter().map(Arc::clone),
                ))),
                self.mode,
                Arc::clone(&self.symbols),
            );
        }
        let evaluators: Vec<Box<dyn crate::Evaluator>> = match self.backend {
            Backend::Frontier => self
                .compiled
                .iter()
                .map(|c| {
                    Box::new(StreamFilter::from_shared(Arc::clone(c))) as Box<dyn crate::Evaluator>
                })
                .collect(),
            Backend::Nfa => self
                .queries
                .iter()
                .map(|q| {
                    Box::new(fx_automata::NfaFilter::new(q).expect("validated linear at build()"))
                        as Box<dyn crate::Evaluator>
                })
                .collect(),
            Backend::LazyDfa => self
                .queries
                .iter()
                .map(|q| {
                    Box::new(
                        fx_automata::LazyDfaFilter::new(q).expect("validated linear at build()"),
                    ) as Box<dyn crate::Evaluator>
                })
                .collect(),
            Backend::Buffering => self
                .queries
                .iter()
                .map(|q| {
                    Box::new(fx_automata::BufferingFilter::new(q)) as Box<dyn crate::Evaluator>
                })
                .collect(),
        };
        Session::new(
            SessionInner::Each(evaluators),
            self.mode,
            Arc::clone(&self.symbols),
        )
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
    /// To consume matches *as they are confirmed* (rather than collected
    /// at the end), open a session and use
    /// [`Session::run_reader_to`] with your own [`crate::MatchSink`].
    pub fn select_str(&self, xml: &str) -> Result<Outcome, EngineError> {
        self.session().run_reader_outcome(xml.as_bytes())
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
    /// sinks and collected outcomes see **every** record's matches,
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
        // Twig queries compile on Frontier…
        let e = Engine::builder().query_str("/a[b and c]").build().unwrap();
        assert_eq!(e.backend(), Backend::Frontier);
        assert_eq!(e.len(), 1);

        // …but the automata backends demand linear paths.
        let err = Engine::builder()
            .query_str("/a[b and c]")
            .backend(Backend::Nfa)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::BackendRequiresLinear { index: 0, .. }),
            "{err}"
        );

        // Buffering takes anything, including non-streamable queries.
        Engine::builder()
            .query_str("/a[not(b)]")
            .backend(Backend::Buffering)
            .build()
            .unwrap();

        // Frontier rejects non-streamable queries with the index.
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
        // Selection runs only on the paper's algorithm…
        let err = Engine::builder()
            .query_str("/a/b")
            .backend(Backend::Nfa)
            .mode(Mode::Select)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::SelectionUnsupported {
                    backend: Backend::Nfa
                }
            ),
            "{err}"
        );

        // …and needs an element output node (attributes carry no
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
    fn index_requires_frontier_backend() {
        let err = Engine::builder()
            .query_str("/a/b")
            .backend(Backend::Nfa)
            .index(IndexPolicy::SharedPrefix)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::IndexUnsupported {
                    backend: Backend::Nfa
                }
            ),
            "{err}"
        );
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
        let out = e
            .session()
            .run_source_outcome(&mut e.html_source(), html.as_bytes())
            .unwrap();
        assert!(out.verdicts().matched()[0]);
        let spans: Vec<_> = out
            .matches(0)
            .iter()
            .map(|m| m.span.slice(html).unwrap())
            .collect();
        // A match span covers the element from its start tag through
        // its (here implied) close.
        assert_eq!(spans, vec!["<li>a", "<li>b"]);

        let e = Engine::builder()
            .query_str("/json/tags")
            .select()
            .build()
            .unwrap();
        let out = e
            .session()
            .run_source_outcome(&mut e.json_source(), r#"{"tags":[1,2,3]}"#.as_bytes())
            .unwrap();
        assert_eq!(out.matches(0).len(), 3);
    }

    #[test]
    fn each_sessions_take_the_owned_fallback_for_frontends() {
        // The automata backends have no interned surface: they take
        // each batch through `Evaluator::process_batch`'s owned replay,
        // which collapses names a lookup-only source could not resolve
        // to a sentinel outside any query vocabulary. Verdicts must
        // agree with the frontier backend.
        let html = "<div><ul><li>x</li></ul></div>";
        for backend in [Backend::Frontier, Backend::Nfa, Backend::LazyDfa] {
            let e = Engine::builder()
                .query_str("//li")
                .backend(backend)
                .build()
                .unwrap();
            let mut session = e.session();
            let v = session
                .run_source(&mut e.html_source(), html.as_bytes())
                .unwrap();
            assert!(v.any(), "{backend:?}");
            let v = session
                .run_source(&mut e.html_source(), "<div><p>x</p></div>".as_bytes())
                .unwrap();
            assert!(!v.any(), "{backend:?}");
        }
    }

    #[test]
    fn a_source_with_a_foreign_table_still_evaluates() {
        let e = Engine::builder().query_str("/json/a").build().unwrap();
        // An interning parser over its own table: syms are meaningless
        // to the engine, so the session replays each batch to owned
        // events through the source's table and re-resolves per event.
        let mut source = fx_json::JsonParser::new();
        let v = e
            .session()
            .run_source(&mut source, r#"{"a": 1}"#.as_bytes())
            .unwrap();
        assert!(v.any());
        assert!(!Arc::ptr_eq(source.symbols(), e.symbols()));
    }

    #[test]
    fn all_four_backends_agree_on_a_linear_query() {
        let xml = "<a><x><b/></x><a><b/></a></a>";
        let mut verdicts = Vec::new();
        for backend in [
            Backend::Frontier,
            Backend::Nfa,
            Backend::LazyDfa,
            Backend::Buffering,
        ] {
            let engine = Engine::builder()
                .query_str("//a/b")
                .backend(backend)
                .build()
                .unwrap();
            verdicts.push(engine.run_str(xml).unwrap().any());
        }
        assert_eq!(verdicts, vec![true; 4]);
    }
}
