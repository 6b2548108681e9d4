//! Per-document evaluation state: [`Session`], its [`Verdicts`] and the
//! selection [`Outcome`].

use crate::builder::Mode;
use crate::error::EngineError;
use fx_core::{Evaluator, HorizonFeed, IndexedBank, Match, MatchSink, MultiFilter, StreamFilter};
use fx_xml::{
    AttrBuf, Event, EventSink, EventSource, ParseError, Span, StreamingParser, SymCache, Symbols,
};
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
/// session's tokenizer, name view and scratch buffers stay warm.
///
/// On a [`Mode::Select`] engine the session additionally *streams
/// matches*: every confirmed output node is delivered to the
/// [`MatchSink`] of a `_to` entry point the moment its ancestor chain
/// resolves, and the session keeps none of them. The sink-less entry
/// points ([`Session::push`], [`Session::run_reader`],
/// [`Session::run_source`]) discard matches: on a selection session
/// they report verdicts and space statistics only.
///
/// Multi-query filtering sessions run on the short-circuiting
/// [`fx_core::MultiFilter`] bank: filters whose
/// verdict is already decided (accepted — or rejected at the root tag,
/// the dominant dissemination case) stop seeing events. Verdicts are
/// unaffected; a decided filter's peak-bit statistic simply freezes at
/// its decision point. Selection sessions never short-circuit — full
/// evaluation must examine every candidate.
///
/// A single-query session, in either mode, runs the bare
/// [`fx_core::StreamFilter`]. Whatever the evaluator, every entry point
/// feeds it through the one [`fx_core::Evaluator`] protocol and one
/// [`HorizonFeed`], whose count is [`Verdicts::events`]. On the reader
/// path the lone filter lends its tokenizer its horizon: elements
/// deeper than any row it holds that no descendant row names, text
/// while nothing buffers and most of a decided document are passed
/// over, and the filter is handed the position each such stretch left
/// it at, so verdicts, matches, events and space statistics are
/// bit-for-bit those of the filter fed every event. A bank has no
/// horizon and sees every event.
pub struct Session {
    inner: SessionInner,
    /// Events fed since the session was spawned, delivered or passed
    /// over: what each [`HorizonFeed`] counted.
    events: u64,
    mode: Mode,
    front: Front,
    /// The all-zero peak-pending column every [`Verdicts`] of a
    /// filtering session shares, allocated by its first document.
    zeros: Option<Arc<[usize]>>,
}

/// What feeds a session's evaluator: its own tokenizer, and where an
/// event on another table is interned.
struct Front {
    /// The session's reusable lookup-only parser over the engine's
    /// symbol table, so events reach the evaluator pre-interned: reset
    /// per document, its scratch buffers, name view and read buffer
    /// stay warm across a reused session's documents.
    parser: StreamingParser,
    /// Where an owned event (hand-pushed, or from a source on a foreign
    /// table) is interned, once, before any evaluator sees it.
    attrs: AttrBuf,
    names: SymCache,
}

pub(crate) enum SessionInner {
    /// The lone filter of a single-query session, filtering or
    /// reporting: the one evaluator with a horizon, so the session's
    /// tokenizer passes over what it cannot see.
    Single(Box<StreamFilter>),
    /// The (optionally reporting) frontier bank.
    Bank(Box<MultiFilter>),
    /// The shared-prefix indexed bank
    /// ([`crate::IndexPolicy::SharedPrefix`]): common query prefixes
    /// evaluated once per event, per-query state only below activated
    /// divergence points.
    Indexed(Box<IndexedBank>),
}

impl Front {
    /// Interns one owned event against the engine's table and feeds it
    /// to `eval`; returns the events fed (one).
    fn push<E: Evaluator>(
        &mut self,
        eval: &mut E,
        event: &Event,
        span: Span,
        sink: &mut dyn MatchSink,
    ) -> u64 {
        let symbols = self.parser.symbols();
        let event = self.attrs.sym_event(&mut self.names, symbols, event);
        let mut feed = HorizonFeed::new(eval, sink);
        feed.event(event, span);
        feed.delivered()
    }

    /// Streams one document from `reader` through `source` (`None`: the
    /// session's own tokenizer, driven by its concrete type, so `eval`
    /// inlines into its token loop and a lone filter's horizon reaches
    /// it) into `eval`, through one [`HorizonFeed`]. Returns the drive's
    /// result and the events the document held, delivered or passed
    /// over.
    fn drive<E: Evaluator>(
        &mut self,
        eval: &mut E,
        source: Option<&mut dyn EventSource>,
        reader: &mut dyn Read,
        sink: &mut dyn MatchSink,
    ) -> (Result<(), ParseError>, u64) {
        let mut feed = HorizonFeed::new(eval, sink);
        let result = match source {
            None => {
                self.parser.reset();
                self.parser.drive_to(reader, &mut feed)
            }
            Some(source) => {
                source.reset();
                if Arc::ptr_eq(source.symbols(), self.parser.symbols()) {
                    source.drive(reader, &mut |ev, span| feed.event(ev, span))
                } else {
                    // A foreign table's syms mean nothing to the compiled
                    // node tests: each event is made owned through it and
                    // interned again against the engine's.
                    let table = Arc::clone(source.symbols());
                    let (symbols, attrs, names) =
                        (self.parser.symbols(), &mut self.attrs, &mut self.names);
                    source.drive(reader, &mut |ev, span| {
                        let owned = ev.to_owned(&table);
                        feed.event(attrs.sym_event(names, symbols, &owned), span)
                    })
                }
            }
        };
        (result, feed.delivered() + feed.passed())
    }
}

impl Session {
    pub(crate) fn new(inner: SessionInner, mode: Mode, symbols: Arc<Symbols>) -> Session {
        Session {
            inner,
            events: 0,
            mode,
            front: Front {
                parser: StreamingParser::with_symbols(symbols).lookup_only(),
                attrs: AttrBuf::new(),
                names: SymCache::new(),
            },
            zeros: None,
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        match &self.inner {
            SessionInner::Single(_) => 1,
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
    /// On a selection session, matches this event confirms are
    /// discarded; use [`Session::push_spanned_to`] to stream them to a
    /// sink.
    pub fn push(&mut self, event: &Event) {
        self.push_spanned_to(event, Span::EMPTY, &mut |_: Match| {});
    }

    /// [`Session::push`] with the event's source byte span (from
    /// [`fx_xml::SpannedEvents`] or [`fx_xml::parse_spanned`]), routing
    /// any matches it confirms to `sink` (selection sessions; filtering
    /// sessions never call the sink): the incremental-selection entry
    /// point. Matches reach `sink` the moment the frontier resolves
    /// their ancestor chains — possibly many events before
    /// `EndDocument`. Events pushed with [`Span::EMPTY`] confirm
    /// matches with empty spans.
    ///
    /// The owned event is interned once against the engine's table
    /// before any evaluator sees it.
    pub fn push_spanned_to(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        let front = &mut self.front;
        self.events += match &mut self.inner {
            SessionInner::Single(filter) => front.push(&mut **filter, event, span, sink),
            SessionInner::Bank(bank) => front.push(&mut **bank, event, span, sink),
            SessionInner::Indexed(bank) => front.push(&mut **bank, event, span, sink),
        };
    }

    /// Collects the per-query verdicts of the document just streamed.
    ///
    /// Errors with [`EngineError::IncompleteDocument`] if `EndDocument`
    /// has not been pushed. The session remains usable for the next
    /// document afterwards.
    pub fn finish(&mut self) -> Result<Verdicts, EngineError> {
        let queries = self.len();
        let selecting = self.mode == Mode::Select;
        let mut matched = Vec::with_capacity(queries);
        let (peak_bits, counted) = match &self.inner {
            SessionInner::Single(filter) => {
                matched.push(filter.result().ok_or(EngineError::IncompleteDocument)?);
                let counted = selecting.then(|| vec![filter.peak_pending_positions()]);
                (vec![filter.stats().max_bits], counted)
            }
            SessionInner::Bank(bank) => {
                let mut peak_bits = Vec::with_capacity(queries);
                let mut counted = selecting.then(|| Vec::with_capacity(queries));
                for (verdict, stats, pending) in bank.readings() {
                    matched.push(verdict.ok_or(EngineError::IncompleteDocument)?);
                    peak_bits.push(stats.max_bits);
                    if let Some(counted) = &mut counted {
                        counted.push(pending);
                    }
                }
                (peak_bits, counted)
            }
            SessionInner::Indexed(bank) => {
                // What the document touched: every other slot is false.
                matched.resize(queries, false);
                let mut accepted = 0;
                for slot in bank.accepted_slots() {
                    matched[slot] = true;
                    accepted += 1;
                }
                // Mid-document, a verdict is known once its query accepts.
                if !bank.is_finished() && accepted < queries {
                    return Err(EngineError::IncompleteDocument);
                }
                let counted = selecting.then(|| bank.peak_pending_positions());
                (bank.peak_memory_bits(), counted)
            }
        };
        Ok(self.verdicts(matched, peak_bits, counted))
    }

    /// One document's [`Verdicts`]: a selection session hands over its
    /// `counted` peak pending positions; a filtering session has none to
    /// count and shares its one all-zero column instead.
    fn verdicts(
        &mut self,
        matched: Vec<bool>,
        peak_bits: Vec<u64>,
        counted: Option<Vec<usize>>,
    ) -> Verdicts {
        let peak_pending = match counted {
            Some(counted) => Pending::Counted(counted),
            None => {
                let queries = matched.len();
                let zeros = self.zeros.get_or_insert_with(|| vec![0; queries].into());
                Pending::Zeros(Arc::clone(zeros))
            }
        };
        Verdicts {
            matched,
            peak_bits,
            peak_pending,
            events: self.events,
        }
    }

    /// Streams one whole document from `reader` and finishes: the
    /// true-streaming entry point. Memory is bounded by the read chunk,
    /// the largest single XML token, and the filters' own state — never
    /// by document size. On a selection session the matches are
    /// discarded; [`Session::run_reader_to`] hands them over instead.
    ///
    /// The `run_reader*` entry points are the `run_source*` ones over
    /// the session's own warm XML tokenizer — driven by its concrete
    /// type, so the evaluator inlines into its token loop and a lone
    /// filter's horizon reaches it — which resolves names lookup-only:
    /// document names outside the compiled query vocabulary collapse to
    /// `Sym::UNKNOWN` instead of growing the engine-wide table, so a
    /// long-lived engine's memory stays bounded by its queries, never
    /// by document content.
    pub fn run_reader<R: Read>(&mut self, mut reader: R) -> Result<Verdicts, EngineError> {
        self.drive(None, &mut reader, &mut |_: Match| {})
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
        self.drive(None, &mut reader, sink)
    }

    /// [`Session::run_reader`] generalized over the event frontend:
    /// streams one whole document from `reader` through `source` — any
    /// [`EventSource`] (the XML [`StreamingParser`], `fx-html`'s soup
    /// tokenizer, `fx-json`'s record adapter, …) — and finishes with
    /// the verdicts. On a selection session the matches are discarded;
    /// [`Session::run_source_to`] hands them over instead.
    ///
    /// The source should share the engine's symbol table (build it with
    /// `with_symbols(engine.symbols().clone()).lookup_only()`, or use
    /// `Engine::html_source` / `Engine::json_source`): then its events
    /// flow straight into the evaluators with no per-event allocation,
    /// like the XML reader path behind one virtual call per event. A
    /// source carrying a *different* table still evaluates correctly —
    /// each event is made owned through its table and interned again
    /// against the engine's, like a hand-pushed one, at owned-event cost.
    pub fn run_source<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
    ) -> Result<Verdicts, EngineError> {
        self.drive(Some(source), &mut reader, &mut |_: Match| {})
    }

    /// [`Session::run_source`], delivering each match to `sink` *as it
    /// is confirmed* — [`Session::run_reader_to`] for non-XML frontends.
    pub fn run_source_to<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
        sink: &mut dyn MatchSink,
    ) -> Result<Verdicts, EngineError> {
        self.drive(Some(source), &mut reader, sink)
    }

    /// [`Session::run_reader_to`] into a `Vec`, grouped per query: what
    /// [`crate::Engine::select_str`] and [`crate::Engine::select_sharded`]
    /// return per document.
    pub(crate) fn select<R: Read>(&mut self, reader: R) -> Result<Outcome, EngineError> {
        let mut matches = Vec::new();
        let verdicts = self.run_reader_to(reader, &mut matches)?;
        Ok(Outcome::new(verdicts, matches))
    }

    /// The one drive: streams one document from `reader` through
    /// `source` (`None`: the session's own warm XML tokenizer) into the
    /// evaluator, one [`Front::drive`] per [`SessionInner`] arm, each
    /// generic over its evaluator, matches going to `sink`. Nothing is
    /// materialized between the tokenizer and the evaluator — no owned
    /// `Event`, no run of events — and in steady state nothing on the
    /// path allocates per element event. A parse or read error ends the
    /// drive only after the events completed before it were evaluated;
    /// a clean drive ends in [`Session::finish`].
    ///
    /// A stream that held no document at all (an NDJSON stream without
    /// a record) delivers no event, so the evaluators still hold
    /// whatever came before: it reads as every query unmatched, with
    /// zero peak bits.
    fn drive(
        &mut self,
        source: Option<&mut dyn EventSource>,
        reader: &mut dyn Read,
        sink: &mut dyn MatchSink,
    ) -> Result<Verdicts, EngineError> {
        let front = &mut self.front;
        let (result, events) = match &mut self.inner {
            SessionInner::Single(filter) => front.drive(&mut **filter, source, reader, sink),
            SessionInner::Bank(bank) => front.drive(&mut **bank, source, reader, sink),
            SessionInner::Indexed(bank) => front.drive(&mut **bank, source, reader, sink),
        };
        self.events += events;
        result?;
        if events == 0 {
            let queries = self.len();
            let counted = (self.mode == Mode::Select).then(|| vec![0; queries]);
            return Ok(self.verdicts(vec![false; queries], vec![0; queries], counted));
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
    /// Groups `matches` — a document's, in confirmation order, as a
    /// `Vec<Match>` sink receives them — per query beside that
    /// document's `verdicts`.
    pub fn new(verdicts: Verdicts, matches: Vec<Match>) -> Outcome {
        let mut per_query: Vec<Vec<Match>> = vec![Vec::new(); verdicts.len()];
        for m in matches {
            per_query[m.query].push(m);
        }
        Outcome {
            verdicts,
            matches: per_query,
        }
    }

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
    peak_pending: Pending,
    events: u64,
}

/// The peak-pending column of a [`Verdicts`], compared and printed as
/// the slice it holds.
#[derive(Clone)]
enum Pending {
    /// A filtering session's: all zero, one slice its documents share.
    Zeros(Arc<[usize]>),
    /// A selection session's counts, exactly as long as the bank.
    Counted(Vec<usize>),
}

impl Pending {
    fn as_slice(&self) -> &[usize] {
        match self {
            Pending::Zeros(zeros) => zeros,
            Pending::Counted(counted) => counted,
        }
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Pending) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Pending {}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
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

    /// Indices of the matching queries, as a `Vec`.
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
    /// filtering sessions, whose documents' verdicts all share one
    /// such slice, allocated once per session: a document's verdicts
    /// cost a filtering session two blocks (`matched`, peak bits), a
    /// selection session three.
    pub fn peak_pending_positions(&self) -> &[usize] {
        self.peak_pending.as_slice()
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
    /// documents when the session is reused), counting those its
    /// tokenizer passed over below a lone filter's horizon as the
    /// events they would have been: the figure does not depend on
    /// what was passed over.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineError};
    use fx_core::Evaluator;

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
        let o1 = session.select("<a><b/><b/></a>".as_bytes()).unwrap();
        assert_eq!(o1.ordinals(0), vec![1, 2]);
        let o2 = session.select("<a><b/></a>".as_bytes()).unwrap();
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

    /// Trie queries beside document-rooted ones, on an indexed engine.
    fn indexed(srcs: &[&str]) -> (crate::Engine, fx_core::IndexedBank) {
        let queries: Vec<_> = srcs
            .iter()
            .map(|s| fx_xpath::parse_query(s).unwrap())
            .collect();
        let engine = Engine::builder()
            .queries(queries.clone())
            .index(crate::IndexPolicy::SharedPrefix)
            .build()
            .unwrap();
        (engine, fx_core::IndexedBank::new(&queries).unwrap())
    }

    #[test]
    fn an_indexed_finish_reads_the_banks_verdicts() {
        let srcs = [
            "/site/a/item[p > 1]",
            "/site/a/leaf",
            "//x[y]",
            "/site[b]",
            "//none",
        ];
        let (engine, mut bank) = indexed(&srcs);
        let mut session = engine.session();
        for xml in [
            "<site><a><item><p>2</p></item><leaf/></a><b/></site>",
            "<site><a><x><y/></x></a></site>",
            "<other/>",
        ] {
            let v = session.run_reader(xml.as_bytes()).unwrap();
            let (mut attrs, mut names) = (fx_xml::AttrBuf::new(), fx_xml::SymCache::new());
            let symbols = std::sync::Arc::clone(bank.symbols());
            for e in &fx_xml::parse(xml).unwrap() {
                let ev = attrs.sym_event(&mut names, &symbols, e);
                bank.event(ev, fx_xml::Span::EMPTY, &mut |_: crate::Match| {});
            }
            let want: Vec<bool> = bank.results().into_iter().map(Option::unwrap).collect();
            assert_eq!(v.matched(), want, "{xml}");
            assert_eq!(v.peak_memory_bits(), bank.peak_memory_bits(), "{xml}");
        }
    }

    #[test]
    fn an_indexed_finish_mid_document_is_incomplete_until_every_query_accepts() {
        let (engine, _) = indexed(&["/a/b", "//c[d]"]);
        let mut session = engine.session();
        let events = fx_xml::parse("<a><b/><c><d/></c><e/></a>").unwrap();
        // `<a><b>`: the first query accepted, the second is open.
        for e in &events[..3] {
            session.push(e);
        }
        assert!(matches!(
            session.finish(),
            Err(EngineError::IncompleteDocument)
        ));
        // Through `</c>`: both accepted, so the verdicts are known.
        for e in &events[3..8] {
            session.push(e);
        }
        assert_eq!(session.finish().unwrap().matched(), &[true, true]);
        for e in &events[8..] {
            session.push(e);
        }
        assert_eq!(session.finish().unwrap().matched(), &[true, true]);
    }
}
