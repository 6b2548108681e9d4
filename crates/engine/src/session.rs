//! Per-document evaluation state: [`Session`], its [`Verdicts`] and the
//! selection [`Outcome`].

use crate::builder::Mode;
use crate::error::EngineError;
use fx_core::{IndexedBank, Match, MatchSink, MultiFilter, StreamFilter};
use fx_xml::{Event, EventSource, Span, StreamingParser, SymEvent, Symbols};
use std::io::Read;
use std::sync::Arc;

/// The mutable half of the engine: filters mid-document.
///
/// A session is fed incrementally — [`Session::push`] one event at a
/// time, or [`Session::run_reader`] to drive a whole document from any
/// byte source without ever materializing it — not even a run of its
/// events: the session's tokenizer hands each event to the evaluators
/// the moment it is complete, its payloads still borrowing the read
/// chunk. After `EndDocument` (or `finish()`), the same session can be
/// reused for the next document: the next `StartDocument` resets every
/// filter's per-document state — space statistics included — while the
/// session's tokenizer, name memo and scratch buffers stay warm.
///
/// On a [`Mode::Select`] engine the session additionally *streams
/// matches*: every confirmed output node is delivered to a
/// [`MatchSink`] (the `_to` entry points) the moment its ancestor
/// chain resolves. The sink-less entry points collect matches
/// internally instead, for retrieval via [`Session::finish_outcome`].
///
/// Multi-query filtering sessions run on the short-circuiting
/// [`fx_core::MultiFilter`] bank: filters whose
/// verdict is already decided (accepted — or rejected at the root tag,
/// the dominant dissemination case) stop seeing events. Verdicts are
/// unaffected; a decided filter's peak-bit statistic simply freezes at
/// its decision point. Single-query filtering sessions feed the filter
/// every event, so their statistics are bit-for-bit identical to a
/// bare [`fx_core::StreamFilter`] run. Selection sessions never
/// short-circuit — full evaluation must examine every candidate.
pub struct Session {
    inner: SessionInner,
    events: u64,
    mode: Mode,
    /// The engine's symbol table: the reader entry points parse with it
    /// so events reach the evaluators pre-interned (zero per-event name
    /// lookups, zero per-event allocation on the tag-dispatch path).
    symbols: Arc<Symbols>,
    /// The session's reusable lookup-only parser for the reader entry
    /// points: reset per document, its scratch buffers, name memo and
    /// read buffer stay warm across a reused session's documents.
    parser: StreamingParser,
    /// Matches confirmed through the sink-less entry points, held for
    /// [`Session::finish_outcome`]; cleared at each `StartDocument`.
    collected: Vec<Match>,
}

pub(crate) enum SessionInner {
    /// The lone filter of a single-query filtering session, fed every
    /// event, so its statistics are a bare [`StreamFilter`]'s.
    Solo(Box<StreamFilter>),
    /// The (optionally reporting) frontier bank.
    Bank(Box<MultiFilter>),
    /// The shared-prefix indexed bank
    /// ([`crate::IndexPolicy::SharedPrefix`]): common query prefixes
    /// evaluated once per event, per-query state only below activated
    /// divergence points.
    Indexed(Box<IndexedBank>),
}

impl SessionInner {
    fn push(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        match self {
            SessionInner::Solo(filter) => filter.process(event),
            SessionInner::Bank(bank) => bank.process_to(event, span, sink),
            SessionInner::Indexed(bank) => bank.process_to(event, span, sink),
        }
    }

    /// One interned event — what the drive loop hands every variant,
    /// its syms issued by the engine's table: one predictable match,
    /// then the concretely-typed filter or bank.
    #[inline]
    fn push_sym(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        match self {
            SessionInner::Solo(filter) => filter.process_sym(event, span),
            SessionInner::Bank(bank) => bank.process_sym_to(event, span, sink),
            SessionInner::Indexed(bank) => bank.process_sym_to(event, span, sink),
        }
    }
}

impl Session {
    pub(crate) fn new(inner: SessionInner, mode: Mode, symbols: Arc<Symbols>) -> Session {
        Session {
            inner,
            events: 0,
            mode,
            parser: StreamingParser::with_symbols(Arc::clone(&symbols)).lookup_only(),
            symbols,
            collected: Vec::new(),
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        match &self.inner {
            SessionInner::Solo(_) => 1,
            SessionInner::Bank(bank) => bank.len(),
            SessionInner::Indexed(bank) => bank.len(),
        }
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine mode this session was spawned with.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The indexed bank's space/activation breakdown — shared-trie bits,
    /// per-group residual bits, exact bank total, activation counts and
    /// the shared-residual pool size (see [`fx_core::IndexSpaceStats`]).
    /// `None` on sessions not built with
    /// [`crate::IndexPolicy::SharedPrefix`]; for those, the per-query
    /// figures in [`Verdicts::peak_memory_bits`] are already exact.
    pub fn index_stats(&self) -> Option<fx_core::IndexSpaceStats> {
        match &self.inner {
            SessionInner::Indexed(bank) => Some(bank.space_stats()),
            _ => None,
        }
    }

    /// Feeds one SAX event to the filters it can concern among those
    /// whose verdict is still open. Streams must carry the full document
    /// framing (`StartDocument` … `EndDocument`), which is what every
    /// `fx_xml` source produces.
    ///
    /// On a selection session, matches this event confirms are collected
    /// internally for [`Session::finish_outcome`]; hand-pushed events
    /// carry no source offsets, so their matches have [`Span::EMPTY`].
    /// Use [`Session::push_spanned_to`] to stream matches to a sink with
    /// real spans.
    pub fn push(&mut self, event: &Event) {
        self.push_event(event, Span::EMPTY, None);
    }

    /// [`Session::push`] with the event's source byte span (from
    /// [`fx_xml::SpannedEvents`] or [`fx_xml::parse_spanned`]), routing
    /// any matches it confirms to `sink` (selection sessions; filtering
    /// sessions never call the sink): the incremental-selection entry
    /// point. Matches reach `sink` the moment the frontier resolves
    /// their ancestor chains — possibly many events before
    /// `EndDocument`.
    pub fn push_spanned_to(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        self.push_event(event, span, Some(sink));
    }

    /// One owned event into the evaluators; `None` sinks into the
    /// session's own outbox.
    fn push_event(&mut self, event: &Event, span: Span, sink: Option<&mut dyn MatchSink>) {
        if matches!(event, Event::StartDocument) {
            self.collected.clear();
        }
        self.events += 1;
        let sink: &mut dyn MatchSink = match sink {
            Some(sink) => sink,
            None => &mut self.collected,
        };
        self.inner.push(event, span, sink);
    }

    /// Collects the per-query verdicts of the document just streamed.
    ///
    /// Errors with [`EngineError::IncompleteDocument`] if `EndDocument`
    /// has not been pushed. The session remains usable for the next
    /// document afterwards.
    pub fn finish(&mut self) -> Result<Verdicts, EngineError> {
        let (matched, peak_bits, peak_pending) = match &self.inner {
            SessionInner::Solo(filter) => (
                vec![filter.result().ok_or(EngineError::IncompleteDocument)?],
                vec![filter.stats().max_bits],
                vec![0],
            ),
            SessionInner::Bank(bank) => {
                let mut matched = Vec::with_capacity(bank.len());
                for r in bank.results() {
                    matched.push(r.ok_or(EngineError::IncompleteDocument)?);
                }
                let peak_bits = bank.stats().iter().map(|s| s.max_bits).collect();
                (matched, peak_bits, bank.peak_pending_positions())
            }
            SessionInner::Indexed(bank) => {
                let mut matched = Vec::with_capacity(bank.len());
                for r in bank.verdicts() {
                    matched.push(r.ok_or(EngineError::IncompleteDocument)?);
                }
                (
                    matched,
                    bank.peak_memory_bits(),
                    bank.peak_pending_positions(),
                )
            }
        };
        Ok(Verdicts {
            matched,
            peak_bits,
            peak_pending,
            events: self.events,
        })
    }

    /// [`Session::finish`], additionally returning the matches the
    /// sink-less entry points collected since the last `StartDocument`,
    /// grouped per query: the batch face of selection.
    pub fn finish_outcome(&mut self) -> Result<Outcome, EngineError> {
        let verdicts = self.finish()?;
        Ok(self.outcome(verdicts))
    }

    /// `verdicts` with the outbox's matches grouped per query.
    fn outcome(&mut self, verdicts: Verdicts) -> Outcome {
        let mut matches: Vec<Vec<Match>> = (0..verdicts.len()).map(|_| Vec::new()).collect();
        for m in self.collected.drain(..) {
            matches[m.query].push(m);
        }
        Outcome { verdicts, matches }
    }

    /// Streams one whole document from `reader` and finishes: the
    /// true-streaming entry point. Memory is bounded by the read chunk,
    /// the largest single XML token, and the filters' own state — never
    /// by document size. (On selection sessions, prefer
    /// [`Session::run_reader_to`] or [`Session::run_reader_outcome`],
    /// which do not discard the matches.)
    ///
    /// The `run_reader*` entry points are the `run_source*` ones over
    /// the session's own warm XML tokenizer — driven by its concrete
    /// type, so the evaluators inline into its token loop — which
    /// resolves names lookup-only: document names outside the compiled
    /// query vocabulary collapse to `Sym::UNKNOWN` instead of growing
    /// the engine-wide table, so a long-lived engine's memory stays
    /// bounded by its queries, never by document content.
    pub fn run_reader<R: Read>(&mut self, mut reader: R) -> Result<Verdicts, EngineError> {
        self.drive(None, &mut reader, None)
    }

    /// Streams one whole document from `reader`, delivering each match
    /// to `sink` *as it is confirmed*, and finishes with the verdicts.
    /// This is the dissemination hot path: subscribers see matches while
    /// the document is still streaming, with byte spans to act on.
    ///
    /// Any `FnMut(Match)` is a sink, and so is a `Vec<Match>` — the
    /// collecting sink, in confirmation order:
    ///
    /// ```
    /// use fx_engine::{Engine, Match, Mode};
    ///
    /// let engine = Engine::builder()
    ///     .query_str("//item[price > 300]/name")
    ///     .mode(Mode::Select)
    ///     .build()
    ///     .unwrap();
    /// let mut sink: Vec<Match> = Vec::new();
    /// let xml = "<r><item><price>400</price><name>a</name></item></r>";
    /// engine.session().run_reader_to(xml.as_bytes(), &mut sink).unwrap();
    /// assert_eq!(sink.len(), 1);
    /// assert_eq!(sink[0].span.slice(xml), Some("<name>a</name>"));
    /// ```
    pub fn run_reader_to<R: Read>(
        &mut self,
        mut reader: R,
        sink: &mut dyn MatchSink,
    ) -> Result<Verdicts, EngineError> {
        self.drive(None, &mut reader, Some(sink))
    }

    /// Streams one whole document from `reader` and returns the full
    /// [`Outcome`] — verdicts plus the collected per-query matches.
    pub fn run_reader_outcome<R: Read>(&mut self, mut reader: R) -> Result<Outcome, EngineError> {
        let verdicts = self.drive(None, &mut reader, None)?;
        Ok(self.outcome(verdicts))
    }

    /// [`Session::run_reader`] generalized over the event frontend:
    /// streams one whole document from `reader` through `source` — any
    /// [`EventSource`] (the XML [`StreamingParser`], `fx-html`'s soup
    /// tokenizer, `fx-json`'s record adapter, …) — and finishes with
    /// the verdicts.
    ///
    /// The source should share the engine's symbol table (build it with
    /// `with_symbols(engine.symbols().clone()).lookup_only()`, or use
    /// `Engine::html_source` / `Engine::json_source`): then its events
    /// flow straight into the evaluators with no per-event allocation,
    /// like the XML reader path behind one virtual call per event. A
    /// source carrying a *different* table still evaluates correctly —
    /// its events are materialized and re-resolved per event, at
    /// owned-event cost.
    pub fn run_source<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
    ) -> Result<Verdicts, EngineError> {
        self.drive(Some(source), &mut reader, None)
    }

    /// [`Session::run_source`], delivering each match to `sink` *as it
    /// is confirmed* — [`Session::run_reader_to`] for non-XML frontends.
    pub fn run_source_to<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
        sink: &mut dyn MatchSink,
    ) -> Result<Verdicts, EngineError> {
        self.drive(Some(source), &mut reader, Some(sink))
    }

    /// [`Session::run_source`], returning the full [`Outcome`] —
    /// verdicts plus the collected per-query matches.
    pub fn run_source_outcome<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
    ) -> Result<Outcome, EngineError> {
        let verdicts = self.drive(Some(source), &mut reader, None)?;
        Ok(self.outcome(verdicts))
    }

    /// The one drive loop: streams one document from `reader` through
    /// `source` (`None`: the session's own warm XML tokenizer) and hands
    /// each event to the evaluators as the tokenizer completes it,
    /// matches going to `sink` (`None`: the session's own outbox).
    /// Nothing is materialized between the two — no owned `Event`, no
    /// run of events — and in steady state nothing on the path
    /// allocates per element event. The session's own tokenizer is
    /// driven by its concrete type, so the evaluators inline into its
    /// token loop; a handed-in source costs one virtual call per event.
    /// A parse or read error ends the drive only after the events
    /// completed before it were evaluated; a clean drive ends in
    /// [`Session::finish`].
    ///
    /// A stream that held no document at all (an NDJSON stream without
    /// a record) delivers no event, so the evaluators still hold
    /// whatever came before: it reads as every query unmatched, with
    /// zero peak bits.
    ///
    /// The one exception is a source whose symbol table is not the
    /// engine's: its syms mean nothing to the compiled node tests, so
    /// each event is made owned through the *source's* table and
    /// re-resolved, like a hand-pushed one.
    fn drive(
        &mut self,
        source: Option<&mut dyn EventSource>,
        reader: &mut dyn Read,
        sink: Option<&mut dyn MatchSink>,
    ) -> Result<Verdicts, EngineError> {
        let delivered = self.events;
        let Session {
            inner,
            events,
            symbols,
            parser,
            collected,
            ..
        } = self;
        // A drive is exactly one document, so clearing the outbox up
        // front equals clearing at its `StartDocument`.
        collected.clear();
        let sink: &mut dyn MatchSink = match sink {
            Some(sink) => sink,
            None => collected,
        };
        let mut feed = |ev: SymEvent<'_>, span: Span| {
            *events += 1;
            inner.push_sym(ev, span, sink)
        };
        let result = match source {
            None => {
                parser.reset();
                parser.drive(reader, &mut feed)
            }
            Some(source) => {
                source.reset();
                if Arc::ptr_eq(source.symbols(), symbols) {
                    source.drive(reader, &mut feed)
                } else {
                    let table = Arc::clone(source.symbols());
                    source.drive(reader, &mut |ev, span| {
                        *events += 1;
                        inner.push(&ev.to_owned(&table), span, sink)
                    })
                }
            }
        };
        result?;
        if self.events == delivered {
            let queries = self.len();
            return Ok(Verdicts {
                matched: vec![false; queries],
                peak_bits: vec![0; queries],
                peak_pending: vec![0; queries],
                events: self.events,
            });
        }
        self.finish()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("queries", &self.len())
            .field("mode", &self.mode)
            .field("events", &self.events)
            .finish()
    }
}

/// Everything one document produced on a selection engine: the boolean
/// [`Verdicts`] plus, per query, the confirmed [`Match`]es in
/// confirmation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    verdicts: Verdicts,
    matches: Vec<Vec<Match>>,
}

impl Outcome {
    /// The per-query boolean verdicts and space statistics.
    pub fn verdicts(&self) -> &Verdicts {
        &self.verdicts
    }

    /// The matches query `query` confirmed, in confirmation order (use
    /// [`Outcome::ordinals`] for document order).
    pub fn matches(&self, query: usize) -> &[Match] {
        &self.matches[query]
    }

    /// All matches across the bank, in confirmation order per query.
    pub fn all_matches(&self) -> impl Iterator<Item = &Match> {
        self.matches.iter().flatten()
    }

    /// Total number of confirmed matches across all queries.
    pub fn total_matches(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }

    /// The selected element ordinals of query `query`, sorted into
    /// document order — directly comparable with `fx_eval::full_eval`
    /// ground truth.
    pub fn ordinals(&self, query: usize) -> Vec<u64> {
        let mut o: Vec<u64> = self.matches[query].iter().map(|m| m.ordinal).collect();
        o.sort_unstable();
        o
    }

    /// Decomposes into `(verdicts, per-query matches)`.
    pub fn into_parts(self) -> (Verdicts, Vec<Vec<Match>>) {
        (self.verdicts, self.matches)
    }
}

/// Per-query outcomes of one document, plus the logical-memory measure
/// the paper's bounds are stated in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    matched: Vec<bool>,
    peak_bits: Vec<u64>,
    peak_pending: Vec<usize>,
    events: u64,
}

impl Verdicts {
    /// Per-query verdicts, in registration order.
    pub fn matched(&self) -> &[bool] {
        &self.matched
    }

    /// Whether any query matched.
    pub fn any(&self) -> bool {
        self.matched.iter().any(|&m| m)
    }

    /// Whether every query matched.
    pub fn all(&self) -> bool {
        self.matched.iter().all(|&m| m)
    }

    /// Iterates the indices of the matching queries without allocating —
    /// the per-document dissemination fan-out loop should use this
    /// rather than [`Verdicts::matching_queries`].
    pub fn matching(&self) -> impl Iterator<Item = usize> + '_ {
        self.matched
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i))
    }

    /// Indices of the matching queries, collected into a `Vec`.
    pub fn matching_queries(&self) -> Vec<usize> {
        self.matching().collect()
    }

    /// Per-query peak logical filter state, in bits.
    pub fn peak_memory_bits(&self) -> &[u64] {
        &self.peak_bits
    }

    /// Per-query peak counts of buffered unresolved candidate positions
    /// — the extra memory selection pays over filtering, which the
    /// paper's follow-up (\[5\]) proves unavoidable. All zeros on
    /// filtering sessions.
    pub fn peak_pending_positions(&self) -> &[usize] {
        &self.peak_pending
    }

    /// Aggregate peak logical filter state across the bank, in bits.
    pub fn total_peak_bits(&self) -> u64 {
        self.peak_bits.iter().sum()
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.matched.len()
    }

    /// True for an empty bank (unreachable via [`crate::Engine`]).
    pub fn is_empty(&self) -> bool {
        self.matched.is_empty()
    }

    /// Events processed by the session so far (cumulative across
    /// documents when the session is reused).
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineError};

    #[test]
    fn push_finish_lifecycle() {
        let engine = Engine::builder().query_str("/a[b > 5]").build().unwrap();
        let mut session = engine.session();
        // finish() before EndDocument is an error, not a panic.
        for e in &fx_xml::parse("<a><b>6</b></a>").unwrap()[..3] {
            session.push(e);
        }
        assert!(matches!(
            session.finish(),
            Err(EngineError::IncompleteDocument)
        ));
        // Completing the stream delivers verdicts.
        for e in &fx_xml::parse("<a><b>6</b></a>").unwrap()[3..] {
            session.push(e);
        }
        let v = session.finish().unwrap();
        assert_eq!(v.matched(), &[true]);
        assert!(v.total_peak_bits() > 0);
    }

    #[test]
    fn session_reuse_across_documents() {
        let engine = Engine::builder()
            .query_str("/doc[title]")
            .query_str("/doc[price > 100]")
            .build()
            .unwrap();
        let mut session = engine.session();
        let v1 = session
            .run_reader("<doc><title>t</title><price>150</price></doc>".as_bytes())
            .unwrap();
        assert_eq!(v1.matching_queries(), vec![0, 1]);
        let v2 = session
            .run_reader("<doc><title>t</title></doc>".as_bytes())
            .unwrap();
        assert_eq!(v2.matching_queries(), vec![0]);
        assert!(v2.events() > v1.events(), "event counter is cumulative");
    }

    #[test]
    fn malformed_documents_surface_parse_errors() {
        let engine = Engine::builder().query_str("/a").build().unwrap();
        let err = engine.run_str("<a><b></a>").unwrap_err();
        assert!(matches!(err, EngineError::Parse(_)), "{err}");
    }

    #[test]
    fn selection_outcome_routes_matches_per_query() {
        let engine = Engine::builder()
            .query_str("/doc/item")
            .query_str("//note")
            .mode(crate::Mode::Select)
            .build()
            .unwrap();
        let xml = "<doc><item/><note/><item/></doc>";
        let outcome = engine.select_str(xml).unwrap();
        assert_eq!(outcome.verdicts().matched(), &[true, true]);
        // Ordinals: doc=0, item=1, note=2, item=3.
        assert_eq!(outcome.ordinals(0), vec![1, 3]);
        assert_eq!(outcome.ordinals(1), vec![2]);
        assert_eq!(outcome.total_matches(), 3);
        for m in outcome.all_matches() {
            let text = m.span.slice(xml).unwrap();
            assert!(text == "<item/>" || text == "<note/>", "{text}");
        }
    }

    #[test]
    fn selection_and_filter_modes_agree_on_verdicts() {
        let srcs = ["/doc/item", "//a[b]/c", "//missing"];
        let xml = "<doc><item/><a><b/><c/></a></doc>";
        let filter = Engine::builder()
            .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
            .build()
            .unwrap();
        let select = Engine::builder()
            .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
            .select()
            .build()
            .unwrap();
        assert_eq!(
            filter.run_str(xml).unwrap().matched(),
            select.select_str(xml).unwrap().verdicts().matched()
        );
    }

    #[test]
    fn selection_session_reuse_clears_collected_matches() {
        let engine = Engine::builder()
            .query_str("//b")
            .mode(crate::Mode::Select)
            .build()
            .unwrap();
        let mut session = engine.session();
        let o1 = session
            .run_reader_outcome("<a><b/><b/></a>".as_bytes())
            .unwrap();
        assert_eq!(o1.ordinals(0), vec![1, 2]);
        let o2 = session
            .run_reader_outcome("<a><b/></a>".as_bytes())
            .unwrap();
        assert_eq!(
            o2.ordinals(0),
            vec![1],
            "first document's matches must not leak"
        );
    }

    #[test]
    fn selection_tracks_peak_pending_positions() {
        let n = 40usize;
        // All <b> candidates stay pending on the late <x/>…
        let pending_heavy = format!("<a>{}<x/></a>", "<b/>".repeat(n));
        // …whereas immediately-resolved matches never occupy the buffer.
        let resolved = format!("<a>{}</a>", "<b/>".repeat(n));
        let engine = Engine::builder()
            .query_str("/a[x]/b")
            .select()
            .build()
            .unwrap();
        let v = engine.select_str(&pending_heavy).unwrap();
        assert!(v.verdicts().peak_pending_positions()[0] >= n);
        assert_eq!(v.total_matches(), n);

        let free = Engine::builder().query_str("//b").select().build().unwrap();
        let v = free.select_str(&resolved).unwrap();
        assert_eq!(v.total_matches(), n);
        assert_eq!(v.verdicts().peak_pending_positions(), &[0]);

        // Filtering sessions report no pending-position cost at all.
        let f = Engine::builder().query_str("/a[x]/b").build().unwrap();
        assert_eq!(
            f.run_str(&pending_heavy).unwrap().peak_pending_positions(),
            &[0]
        );
    }

    #[test]
    fn push_to_streams_matches_with_empty_spans() {
        let engine = Engine::builder().query_str("//b").select().build().unwrap();
        let mut session = engine.session();
        let mut got: Vec<crate::Match> = Vec::new();
        for e in &fx_xml::parse("<a><b/></a>").unwrap() {
            session.push_spanned_to(e, fx_xml::Span::EMPTY, &mut got);
        }
        session.finish().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ordinal, 1);
        assert_eq!(got[0].span, fx_xml::Span::EMPTY);
    }

    #[test]
    fn reader_path_keeps_the_symbol_table_bounded() {
        // The engine-wide table holds the query vocabulary only: a
        // stream of documents with ever-fresh element names must not
        // grow it (the reader path parses in lookup-only mode).
        let engine = Engine::builder()
            .query_str("/doc[title]")
            .query_str("//doc/item")
            .build()
            .unwrap();
        let before = engine.symbols().len();
        let mut session = engine.session();
        for i in 0..50 {
            let xml = format!("<doc><title/><u{i}><v{i}/></u{i}></doc>");
            session.run_reader(xml.as_bytes()).unwrap();
        }
        assert_eq!(
            engine.symbols().len(),
            before,
            "document names leaked into the engine table"
        );
        // And the queries still evaluate correctly against such docs.
        let v = session
            .run_reader("<doc><title/><item/><w99/></doc>".as_bytes())
            .unwrap();
        assert_eq!(v.matched(), &[true, true]);
    }
}
