//! Multi-query filtering: evaluating many XPath filters over one document
//! stream, the selective-dissemination scenario that motivated streaming
//! XPath engines (\[1\] in the paper). Each query keeps its own frontier
//! table; an interned event is handed to the filters it can concern.
//!
//! A bank built with [`MultiFilter::from_compiled_reporting`] runs every
//! filter in *selection* mode: confirmed output nodes are routed to a
//! [`MatchSink`] as [`Match`](crate::Match)es stamped with their query's bank index the
//! moment they resolve — the per-subscriber fan-out a dissemination
//! deployment needs.
//!
//! ## Naive bank vs. the shared-prefix index
//!
//! [`MultiFilter`] is the *naive* bank — one unshared [`StreamFilter`]
//! per query — but an event costs it the filters that are *interested*,
//! not all n. A frontier row reacts to its query's own node tests and
//! nothing else (Thm 8.8), so the bank keeps the stream position (level,
//! element ordinal, event count) once and dispatches XFilter-style (\[1\])
//! on the element name: a start or end tag reaches the filters whose
//! query names it plus those with a wildcard step, text reaches the
//! filters that are buffering a leaf value, and document framing and the
//! root element's two tags (the early reject of rooted filters keys on
//! them) reach everyone. Decided filters stop seeing events as before.
//! An end tag is dispatched on its *own* name, so the bank holds no
//! per-open-element stack: its extra state is `O(log d)` bits plus two
//! counters per filter. On a 6-query selection bank over XMark about a
//! quarter of the (filter, event) pairs are delivered;
//! [`MultiFilter::filter_events_delivered`] counts them.
//!
//! What stayed exact: a filter that was passed over is brought up to
//! date just before its next delivery — position, the number of events
//! it missed, and the deepest level the stream reached meanwhile. A
//! passed-over stretch leaves a filter's rows, offset stacks and buffer
//! untouched and its logical size is monotone in the level, so that one
//! high-water mark reproduces its [`SpaceStats`] bit for bit. Verdicts,
//! the match sequence (delivery runs in ascending filter index) and the
//! per-query space statistics are those of n independent
//! [`StreamFilter`] runs fed every event, which keeps this the reference
//! bank for the paper's memory measurements and the oracle the indexed
//! bank is differentially tested against
//! (`tests/dispatch_differential.rs` holds it to that). On a *malformed*
//! stream — an end tag named differently from its start tag — a filter
//! may miss a close it would have seen alone; nothing panics and the
//! next `StartDocument` starts clean, but that document's answers are
//! unspecified, as the paper allows.
//!
//! [`crate::IndexedBank`] is the *shared-prefix* bank: queries are
//! grouped by canonical form (`fx_xpath::canonical::canonical_key`) and their
//! predicate-free chain prefixes merged into a trie walked **once** per
//! event, with per-query state only below activated divergence points —
//! and the compiled remainders below those points pooled per canonical
//! residual form, so activation never compiles. Per-event cost is
//! `O(shared trie records + live residual instances)` instead of one
//! filter's work per *interested* query — sublinear in bank size
//! whenever queries overlap and documents touch only part of the bank. Its per-query space figures are *attributed*
//! (shared bits split evenly across sharers, summing exactly to the
//! bank total) rather than individually measured, so
//! [`IndexedBank::total_max_bits`](crate::IndexedBank::total_max_bits)
//! is directly comparable with [`MultiFilter::total_max_bits`] while a
//! single query's number is an even share, not a bit-exact solo run.
//! Prefer the index for large overlapping banks (hundreds to millions
//! of dissemination subscriptions); prefer `MultiFilter` for small
//! banks or when bit-exact per-query accounting matters. Verdicts and
//! routed matches are identical either way — proven by
//! `tests/indexed_differential.rs` on seeded 1k-query banks.

use crate::filter::{CompiledQuery, StreamFilter, UnsupportedQuery};
use crate::reporter::MatchSink;
use crate::space::SpaceStats;
use fx_xml::{AttrBuf, EventBatch, Span, Sym, SymEvent, Symbols};
use fx_xpath::Query;
use std::sync::Arc;

/// A bank of streaming filters sharing one event feed.
#[derive(Debug, Clone)]
pub struct MultiFilter {
    filters: Vec<StreamFilter>,
    /// What the bank keeps about each filter this document.
    lanes: Vec<Lane>,
    /// Number of filters whose verdict is still open this document.
    /// When it hits zero the bank skips events *before* dispatching
    /// them — on dissemination workloads most documents decide the
    /// whole bank within a few tags, making the tail of the stream
    /// free.
    open: usize,
    /// The bank's shared symbol table: every filter's compiled node
    /// tests are syms from this table, so an event interned against it
    /// serves the whole bank.
    symbols: Arc<Symbols>,
    /// Reused attribute buffer an `EventBatch` replays through.
    attr_scratch: AttrBuf,
    /// Where the stream stands, kept once for the whole bank; a filter
    /// holds its own copy only as of the last event delivered to it.
    at: Position,
    /// Per filter: the deepest level the stream has reached since its
    /// last delivery — what [`StreamFilter::sync`] observes for the
    /// stretch it was passed over. Apart from the lanes: every start tag
    /// sweeps it.
    deepest: Vec<usize>,
    /// The filters with an open value-restricted leaf candidacy, in no
    /// particular order: the only ones text is delivered to.
    buffering: Vec<u32>,
    /// Which filters a tag's name reaches.
    interest: Interest,
    /// Monotone count of (filter, event) deliveries.
    delivered: u64,
}

/// The bank's per-document notes on one filter.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// The early verdict: once a filter decides mid-stream (see
    /// [`StreamFilter::decided`]) it is frozen here and the filter skips
    /// the rest of the event feed.
    decided: Option<bool>,
    /// Last observed [`StreamFilter::match_progress`]: the decision
    /// check re-runs only when a match flag actually moved.
    progress: u64,
    /// `at.events` as of the last event delivered to the filter.
    seen: u64,
    /// Whether the filter sits in `buffering`.
    buffering: bool,
}

/// A stream position within the current document.
#[derive(Debug, Clone, Copy, Default)]
struct Position {
    /// Number of open elements.
    level: usize,
    /// Ordinal of the next element start.
    ordinal: u64,
    /// Events so far, `StartDocument` included.
    events: u64,
}

/// Whom an event is delivered to (decided filters always excepted).
enum Audience {
    /// Document framing and the root element's tags.
    Everyone,
    /// A tag below the root: the filters whose query names it, and
    /// those with a wildcard step.
    Named(Sym),
    /// Text: the filters buffering a leaf value.
    Buffering,
}

/// The name-dispatch index: per sym, the filters whose query mentions
/// it, ascending (compressed rows: sym `s` owns
/// `filters[starts[s]..starts[s + 1]]`); and the filters with a wildcard
/// element step, which every tag reaches.
#[derive(Debug, Clone, Default)]
struct Interest {
    starts: Vec<u32>,
    filters: Vec<u32>,
    every_tag: Vec<u32>,
}

impl Interest {
    fn build(compiled: &[Arc<CompiledQuery>]) -> Interest {
        let mut every_tag = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(4 * compiled.len());
        for (i, c) in compiled.iter().enumerate() {
            match c.element_names() {
                None => every_tag.push(i as u32),
                Some(names) => pairs.extend(names.map(|s| (s as u32, i as u32))),
            }
        }
        pairs.sort_unstable();
        let syms = pairs.last().map_or(0, |&(s, _)| s as usize + 1);
        let mut starts = vec![0u32; syms + 1];
        for &(s, _) in &pairs {
            starts[s as usize + 1] += 1;
        }
        for s in 0..syms {
            starts[s + 1] += starts[s];
        }
        Interest {
            starts,
            filters: pairs.into_iter().map(|(_, i)| i).collect(),
            every_tag,
        }
    }

    /// The row of `name` in `filters` (empty for [`Sym::UNKNOWN`] and
    /// for names no query mentions).
    fn named(&self, name: Sym) -> std::ops::Range<usize> {
        match self
            .starts
            .get(name.index()..name.index().saturating_add(2))
        {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }
}

impl MultiFilter {
    /// Compiles all queries against one shared symbol table; fails on
    /// the first unsupported one (with its index).
    pub fn new(queries: &[Query]) -> Result<MultiFilter, (usize, UnsupportedQuery)> {
        let symbols = Arc::new(Symbols::new());
        let mut shared = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let compiled =
                CompiledQuery::compile_with(q, Arc::clone(&symbols)).map_err(|e| (i, e))?;
            shared.push(Arc::new(compiled));
        }
        Ok(MultiFilter::from_shared(shared))
    }

    /// Builds a bank from already-compiled queries, wrapping each in an
    /// [`Arc`]. Callers holding `Arc<CompiledQuery>` handles (the
    /// engine) should use [`MultiFilter::from_shared`], which never
    /// copies a compilation.
    pub fn from_compiled(compiled: impl IntoIterator<Item = CompiledQuery>) -> MultiFilter {
        MultiFilter::from_shared(compiled.into_iter().map(Arc::new))
    }

    /// Builds a bank from *shared* compiled queries: each filter spawn
    /// is a reference-count bump, never a recompilation or deep clone —
    /// sessions over one engine share one compilation. Queries compiled
    /// against different symbol tables are re-bound (copy-on-write)
    /// onto the first query's table so the bank converts each event
    /// exactly once; handles that already share a table (the engine
    /// path) are used as-is.
    pub fn from_shared(compiled: impl IntoIterator<Item = Arc<CompiledQuery>>) -> MultiFilter {
        let (symbols, shared) = unify_tables(compiled.into_iter().collect());
        let interest = Interest::build(&shared);
        let filters = shared.into_iter().map(StreamFilter::from_shared).collect();
        MultiFilter::assemble(symbols, interest, filters)
    }

    fn assemble(symbols: Arc<Symbols>, interest: Interest, filters: Vec<StreamFilter>) -> Self {
        let n = filters.len();
        MultiFilter {
            filters,
            lanes: vec![Lane::default(); n],
            open: n,
            symbols,
            attr_scratch: AttrBuf::new(),
            at: Position::default(),
            deepest: vec![0; n],
            buffering: Vec::new(),
            interest,
            delivered: 0,
        }
    }

    /// Builds a *selection* bank from already-compiled queries: every
    /// filter runs in reporting mode, and [`MultiFilter::process_sym_to`]
    /// routes each confirmed match to the sink with its query index.
    /// Fails with the index of the first query whose output node cannot
    /// be reported (attribute output).
    pub fn from_compiled_reporting(
        compiled: impl IntoIterator<Item = CompiledQuery>,
    ) -> Result<MultiFilter, (usize, UnsupportedQuery)> {
        MultiFilter::from_shared_reporting(compiled.into_iter().map(Arc::new))
    }

    /// [`MultiFilter::from_shared`] in reporting mode — the
    /// no-deep-clone selection bank.
    pub fn from_shared_reporting(
        compiled: impl IntoIterator<Item = Arc<CompiledQuery>>,
    ) -> Result<MultiFilter, (usize, UnsupportedQuery)> {
        let (symbols, shared) = unify_tables(compiled.into_iter().collect());
        let interest = Interest::build(&shared);
        let mut filters = Vec::with_capacity(shared.len());
        for (i, c) in shared.into_iter().enumerate() {
            filters.push(StreamFilter::from_shared_reporting(c).map_err(|e| (i, e))?);
        }
        Ok(MultiFilter::assemble(symbols, interest, filters))
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Feeds one interned event (syms from the bank's table,
    /// [`MultiFilter::symbols`]) with its source span to the filters it
    /// can concern (see the module docs) among those whose verdict is
    /// still open, routing any matches it confirmed to `sink` — each
    /// stamped with the index of the query that selected it, so a
    /// dissemination layer can fan confirmed matches straight out to
    /// per-query subscribers. A `StreamingParser` sharing the table
    /// feeds this directly.
    ///
    /// Filters that decide mid-document (see [`StreamFilter::decided`])
    /// stop receiving content events — on dissemination workloads most
    /// of the bank typically decides within the document's first
    /// elements. Document framing events still reach every filter, so
    /// per-document reset and final verdicts are unaffected. A decided
    /// filter's space/event statistics simply stop advancing at its
    /// decision point. Filtering-mode banks never produce matches (the
    /// sink is simply not called); reporting banks never short-circuit,
    /// because full evaluation must examine every candidate.
    pub fn process_sym_to(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        // Fully-decided bank: no filter will look at this event (decided
        // filters skip even `EndDocument`), so skip the whole loop —
        // the engine's interned reader path lands here directly. The
        // position stops advancing too; the `StartDocument` that reopens
        // the bank resets it.
        if self.open == 0 && !matches!(event, SymEvent::StartDocument) {
            return;
        }
        if matches!(event, SymEvent::StartDocument) {
            self.at = Position::default();
            self.lanes.fill(Lane::default());
            self.buffering.clear();
            self.open = self.filters.len();
        }
        // Where the stream stood before this event: what a filter that
        // was passed over is brought up to before it sees it.
        let before = self.at;
        self.at.events += 1;
        let to = match event {
            SymEvent::StartDocument | SymEvent::EndDocument => Audience::Everyone,
            // The root element's two tags reach everyone: rooted filters
            // live or die by them.
            SymEvent::StartElement { name, .. } => {
                self.at.level += 1;
                self.at.ordinal += 1;
                if before.level == 0 {
                    Audience::Everyone
                } else {
                    Audience::Named(name)
                }
            }
            SymEvent::EndElement { name } => {
                self.at.level = self.at.level.saturating_sub(1);
                if self.at.level == 0 {
                    Audience::Everyone
                } else {
                    Audience::Named(name)
                }
            }
            SymEvent::Text { .. } => Audience::Buffering,
        };
        match to {
            Audience::Everyone => {
                for i in 0..self.filters.len() {
                    self.deliver(i, before, event, span, sink);
                }
            }
            Audience::Named(name) => self.deliver_named(name, before, event, span, sink),
            Audience::Buffering => {
                // Text moves no buffering flag, so the list is stable
                // under the loop.
                for k in 0..self.buffering.len() {
                    let i = self.buffering[k] as usize;
                    self.deliver(i, before, event, span, sink);
                }
            }
        }
        if self.at.level > before.level {
            // One pass over a dense array, a compare per filter, is all
            // a passed-over filter costs a start tag. (After the
            // deliveries: a filter syncs to the stretch *before* the
            // event it is about to see.)
            let level = self.at.level;
            for d in &mut self.deepest {
                *d = (*d).max(level);
            }
        }
    }

    /// Delivers a tag to the filters its name reaches — those whose
    /// query mentions it merged with the wildcard ones, in ascending
    /// filter index so matches leave in the order a full fan-out gives.
    fn deliver_named(
        &mut self,
        name: Sym,
        before: Position,
        event: SymEvent<'_>,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        let mut named = self.interest.named(name);
        let mut wild = 0;
        loop {
            let a = self.interest.filters[named.clone()].first().copied();
            let b = self.interest.every_tag.get(wild).copied();
            let i = match (a, b) {
                (None, None) => return,
                // The two lists are disjoint.
                (Some(a), Some(b)) if b < a => {
                    wild += 1;
                    b
                }
                (Some(a), _) => {
                    named.start += 1;
                    a
                }
                (None, Some(b)) => {
                    wild += 1;
                    b
                }
            };
            self.deliver(i as usize, before, event, span, sink);
        }
    }

    /// Hands `event` to filter `i` unless it is decided: syncs it past
    /// whatever it was not shown since its last delivery, processes it
    /// with `sink` (the filter stamps what it confirms with `i`), and
    /// re-checks the early decision if a match flag moved.
    fn deliver(
        &mut self,
        i: usize,
        before: Position,
        event: SymEvent<'_>,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        let lane = &mut self.lanes[i];
        if lane.decided.is_some() {
            // The skipped filter's frontier is frozen mid-document, so
            // even `EndDocument` must not reach it; its verdict lives in
            // its lane.
            return;
        }
        let f = &mut self.filters[i];
        if lane.seen != before.events {
            f.sync(
                before.level,
                before.ordinal,
                before.events - lane.seen,
                self.deepest[i],
            );
        }
        f.process_sym_to(event, span, i, sink);
        self.delivered += 1;
        lane.seen = self.at.events;
        self.deepest[i] = self.at.level;
        if f.is_buffering() != lane.buffering {
            lane.buffering = !lane.buffering;
            if lane.buffering {
                self.buffering.push(i as u32);
            } else {
                self.buffering.retain(|&b| b as usize != i);
            }
        }
        // `decided` can only flip when a match flag turned true, so the
        // recursive check runs on transitions only — not on every event
        // of the stream.
        let progress = f.match_progress();
        if progress != lane.progress {
            lane.progress = progress;
            lane.decided = f.decided();
            if lane.decided.is_some() {
                self.open -= 1;
            }
        }
    }

    /// [`MultiFilter::process_sym_to`] over a whole [`EventBatch`] —
    /// the batch-granular hot path: one bank call walks the entire run
    /// with the replay attribute scratch hoisted out of the event loop,
    /// and a bank that goes fully decided mid-batch skips the
    /// *remainder of the batch* (and every subsequent batch, via the
    /// same `open == 0` probe) with one index scan for the next
    /// `StartDocument` instead of re-entering per-event dispatch.
    /// Event order, match routing, and per-filter statistics are
    /// exactly those of the per-event feed.
    pub fn process_batch_to(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        let mut scratch = std::mem::take(&mut self.attr_scratch);
        let mut i = 0usize;
        while i < batch.len() {
            if self.open == 0 {
                // Fully decided: only a `StartDocument` can wake the
                // bank, so jump straight to the next one (or done).
                match batch.find_start_document(i) {
                    Some(j) => i = j,
                    None => break,
                }
            }
            i = batch.replay_control(i, &mut scratch, |ev, span| {
                self.process_sym_to(ev, span, sink);
                self.open > 0
            });
        }
        self.attr_scratch = scratch;
    }

    /// The bank's shared symbol table: hand it to
    /// `fx_xml::StreamingParser::with_symbols` so parsed events arrive
    /// already interned and [`MultiFilter::process_sym_to`] skips the
    /// per-event name lookup entirely.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Per-query verdicts (available after `endDocument`, or earlier for
    /// filters that short-circuited).
    pub fn results(&self) -> Vec<Option<bool>> {
        self.filters
            .iter()
            .zip(&self.lanes)
            .map(|(f, lane)| f.result().or(lane.decided))
            .collect()
    }

    /// Iterates the indices of the queries the last document matched,
    /// without allocating — the hot-path form of
    /// [`MultiFilter::matching_queries`] for per-document fan-out loops.
    pub fn matching(&self) -> impl Iterator<Item = usize> + '_ {
        self.filters
            .iter()
            .zip(&self.lanes)
            .enumerate()
            .filter_map(|(i, (f, lane))| (f.result().or(lane.decided) == Some(true)).then_some(i))
    }

    /// Indices of the queries the last document matched, collected.
    pub fn matching_queries(&self) -> Vec<usize> {
        self.matching().collect()
    }

    /// Per-query peak counts of buffered unresolved candidate positions
    /// (all zero for filtering-mode banks) — the \[5\] selection cost.
    pub fn peak_pending_positions(&self) -> Vec<usize> {
        self.filters
            .iter()
            .map(StreamFilter::peak_pending_positions)
            .collect()
    }

    /// True when this bank reports positions (built via
    /// [`MultiFilter::from_compiled_reporting`]).
    pub fn is_reporting(&self) -> bool {
        self.filters.iter().any(StreamFilter::is_reporting)
    }

    /// Aggregate space: the sum of every filter's peak bits, plus the
    /// per-filter stats for inspection.
    pub fn total_max_bits(&self) -> u64 {
        self.filters.iter().map(|f| f.stats().max_bits).sum()
    }

    /// Monotone count of (filter, event) deliveries since the bank was
    /// built: the work name dispatch leaves. Against
    /// `len() × events fed`, it is the share of the full fan-out the
    /// bank still performs — a deterministic figure where wall-clock on
    /// a noisy box decides nothing.
    pub fn filter_events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Per-filter statistics: complete once `EndDocument` (or the
    /// filter's early decision) has been processed; mid-document, a
    /// filter's figures are as of the last event delivered to it.
    pub fn stats(&self) -> Vec<&SpaceStats> {
        self.filters.iter().map(StreamFilter::stats).collect()
    }
}

/// Ensures every compiled handle shares one symbol table (the first
/// query's, or a fresh one for an empty bank): handles already on that
/// table pass through untouched (the engine's pooled path — pure
/// refcount bumps), foreign ones are re-bound copy-on-write.
fn unify_tables(mut compiled: Vec<Arc<CompiledQuery>>) -> (Arc<Symbols>, Vec<Arc<CompiledQuery>>) {
    let symbols = compiled
        .first()
        .map(|c| Arc::clone(c.symbols()))
        .unwrap_or_default();
    for c in compiled.iter_mut() {
        if !Arc::ptr_eq(c.symbols(), &symbols) {
            let mut rebound = (**c).clone();
            rebound.bind(&symbols);
            *c = Arc::new(rebound);
        }
    }
    (symbols, compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexed::tests::{feed, feed_to};
    use crate::reporter::Match;
    use fx_xpath::parse_query;

    #[test]
    fn dissemination_scenario() {
        let queries: Vec<Query> = [
            "/doc[title]",
            "/doc[price > 100]",
            "//section[figure and caption]",
            "/doc/author",
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
        let mut mf = MultiFilter::new(&queries).unwrap();
        let xml = "<doc><title>t</title><price>150</price><author>a</author></doc>";
        feed(&mut mf, &fx_xml::parse(xml).unwrap());
        assert_eq!(mf.matching_queries(), vec![0, 1, 3]);
        assert_eq!(mf.matching().collect::<Vec<_>>(), vec![0, 1, 3]);
        let xml2 = "<doc><section><figure/><caption/></section></doc>";
        feed(&mut mf, &fx_xml::parse(xml2).unwrap());
        assert_eq!(mf.matching_queries(), vec![2]);
    }

    #[test]
    fn reporting_bank_routes_matches_per_query() {
        let queries: Vec<Query> = ["/doc/item", "//note", "/doc[absent]/item"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let compiled = queries
            .iter()
            .map(|q| CompiledQuery::compile(q).unwrap())
            .collect::<Vec<_>>();
        let mut bank = MultiFilter::from_compiled_reporting(compiled).unwrap();
        assert!(bank.is_reporting());
        let xml = "<doc><item/><note/><item/></doc>";
        let mut routed: Vec<Match> = Vec::new();
        let spanned = fx_xml::parse_spanned(xml).unwrap();
        feed_to(
            &mut bank,
            spanned.iter().map(|(event, span)| (event, *span)),
            &mut routed,
        );
        // Ordinals: doc=0, item=1, note=2, item=3.
        let per_query = |q: usize| {
            routed
                .iter()
                .filter(|m| m.query == q)
                .map(|m| m.ordinal)
                .collect::<Vec<_>>()
        };
        assert_eq!(per_query(0), vec![1, 3]);
        assert_eq!(per_query(1), vec![2]);
        assert_eq!(per_query(2), Vec::<u64>::new());
        // Spans point back at the matched elements' source bytes.
        for m in &routed {
            let text = m.span.slice(xml).unwrap();
            assert!(text == "<item/>" || text == "<note/>", "{text}");
        }
        // Verdicts stay available alongside routed matches.
        assert_eq!(
            bank.results(),
            vec![Some(true), Some(true), Some(false)],
            "boolean verdicts coexist with selection"
        );
    }

    #[test]
    fn reporting_bank_rejects_attribute_output_with_index() {
        let queries: Vec<Query> = ["/a/b", "/a/@id"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let compiled = queries
            .iter()
            .map(|q| CompiledQuery::compile(q).unwrap())
            .collect::<Vec<_>>();
        let err = MultiFilter::from_compiled_reporting(compiled).unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(err.1, UnsupportedQuery::AttributeOutput);
    }

    #[test]
    fn rejects_unsupported_with_index() {
        let queries: Vec<Query> = ["/a[b]", "/a[not(b)]"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let err = MultiFilter::new(&queries).unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn results_agree_with_individual_runs() {
        let srcs = ["/r[a]", "//a[b and c]", "/r/a/b", "//c"];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let xml = "<r><a><b/><c/></a></r>";
        let events = fx_xml::parse(xml).unwrap();
        let mut mf = MultiFilter::new(&queries).unwrap();
        feed(&mut mf, &events);
        for (i, q) in queries.iter().enumerate() {
            let solo = StreamFilter::new(q).unwrap().run_stream(&events).unwrap();
            assert_eq!(mf.results()[i], Some(solo), "{}", srcs[i]);
        }
    }

    #[test]
    fn decided_filters_skip_the_rest_of_the_document() {
        // `/r[a]` decides at the first <a>; the padding after it must not
        // be fed to that filter, while the undecided `/r[z]` sees it all.
        let queries: Vec<Query> = ["/r[a]", "/r[z]"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let padding = "<x/>".repeat(500);
        let xml = format!("<r><a/>{padding}</r>");
        let events = fx_xml::parse(&xml).unwrap();
        let mut mf = MultiFilter::new(&queries).unwrap();
        feed(&mut mf, &events);
        assert_eq!(mf.results(), vec![Some(true), Some(false)]);
        let stats = mf.stats();
        assert!(
            stats[0].events < stats[1].events / 2,
            "decided filter kept processing: {} vs {}",
            stats[0].events,
            stats[1].events
        );
        // And the next document resets the short-circuit.
        feed(&mut mf, &fx_xml::parse("<r><z/></r>").unwrap());
        assert_eq!(mf.results(), vec![Some(false), Some(true)]);
    }

    #[test]
    fn root_mismatch_decides_false_at_the_first_tag() {
        // The dominant dissemination case: a `/doc[...]` filter fed a
        // document rooted elsewhere dies at the root start tag and skips
        // the entire body; the descendant-axis filter cannot and must
        // keep listening.
        let queries: Vec<Query> = ["/doc[title]", "//doc[title]"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let body = "<x/>".repeat(500);
        let xml = format!("<other>{body}<doc><title/></doc></other>");
        let events = fx_xml::parse(&xml).unwrap();
        let mut mf = MultiFilter::new(&queries).unwrap();
        feed(&mut mf, &events);
        // `/doc[title]` is rooted: no match. `//doc[title]` finds the
        // nested <doc>: match.
        assert_eq!(mf.results(), vec![Some(false), Some(true)]);
        let stats = mf.stats();
        assert!(
            stats[0].events < 10,
            "root-mismatched filter saw {} events, expected a handful",
            stats[0].events
        );
        // And the next document is judged afresh.
        feed(&mut mf, &fx_xml::parse("<doc><title/></doc>").unwrap());
        assert_eq!(mf.results(), vec![Some(true), Some(true)]);
    }

    #[test]
    fn short_circuit_preserves_verdicts_on_random_workloads() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let srcs = [
            "/a[b]",
            "//a[b and c]",
            "//b",
            "/a/b/c",
            "/a[b > 3]",
            "//a[.//b]",
        ];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut rng = SmallRng::seed_from_u64(0x5C1C);
        let cfg = fx_workloads::RandomDocConfig::default();
        let mut mf = MultiFilter::new(&queries).unwrap();
        for _ in 0..60 {
            let d = fx_workloads::random_document(&mut rng, &cfg);
            let events = d.to_events();
            feed(&mut mf, &events);
            for (i, q) in queries.iter().enumerate() {
                let solo = StreamFilter::new(q).unwrap().run_stream(&events);
                assert_eq!(mf.results()[i], solo, "{} on {}", srcs[i], d.to_xml());
            }
        }
    }
}
