//! The streaming XPath filtering algorithm of Section 8.
//!
//! The algorithm gradually constructs a matching of the document with the
//! query on a *frontier* of the query (§8.1). When a `startElement` event
//! arrives for a document node `x`, every frontier record `u` for which `x`
//! is a *candidate match* spawns records for `u`'s children; when the
//! matching `endElement` arrives, those child records decide whether `x`
//! turned into a *real match* for `u`. The document matches the query iff
//! the query root's children are all matched at `endDocument`.
//!
//! The implementation follows the pseudocode of Figs. 20–21, with two
//! corrections documented in `DESIGN.md`:
//!
//! 1. *match-flag clobbering*: Fig. 21 line 28 sets `urec.matched := m`,
//!    which under recursion lets a failed outer candidate erase an inner
//!    candidate's success; we accumulate `matched ∨= m`;
//! 2. *buffer-offset overwrite*: Fig. 20 line 8 stores a single
//!    `strValueStart` per record, which nested candidacies of a
//!    descendant-axis leaf overwrite; we keep a stack of offsets.
//!
//! Neither changes the space complexity (Thm 8.8): the offset stack depth
//! is bounded by the path recursion depth `r`, which the theorem already
//! charges per record.

use crate::reporter::{Match, MatchSink, Reporter};
use crate::space::SpaceStats;
use fx_xml::{AttrBuf, Event, EventBatch, Span, Sym, SymAttr, SymCache, SymEvent, Symbols};
use fx_xpath::truth::{constraining_predicate, is_atomic, TruthError};
use fx_xpath::{Axis, Expr, NodeTest, Query, QueryNodeId};
use std::fmt;
use std::sync::Arc;

/// Why a query cannot be handled by the streaming filter. The algorithm
/// supports every leaf-only-value-restricted univariate conjunctive query
/// (§8 intro).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsupportedQuery {
    /// A predicate is not a conjunction of atomic predicates.
    NotConjunctive(QueryNodeId),
    /// An atomic predicate has more than one variable.
    NotUnivariate(QueryNodeId),
    /// An internal node is value-restricted.
    NotLeafOnlyValueRestricted(QueryNodeId),
    /// Position reporting was requested but the output node is reached
    /// via an attribute axis (attributes carry no element ordinal).
    AttributeOutput,
}

impl fmt::Display for UnsupportedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedQuery::NotConjunctive(u) => {
                write!(f, "predicate of {u} is not conjunctive")
            }
            UnsupportedQuery::NotUnivariate(u) => {
                write!(f, "predicate of {u} is not univariate")
            }
            UnsupportedQuery::NotLeafOnlyValueRestricted(u) => {
                write!(f, "internal node {u} is value-restricted")
            }
            UnsupportedQuery::AttributeOutput => {
                write!(
                    f,
                    "position reporting does not support attribute output nodes"
                )
            }
        }
    }
}

impl std::error::Error for UnsupportedQuery {}

/// A compiled query node: the per-node data the event handlers consult.
#[derive(Debug, Clone)]
struct CNode {
    axis: Axis,
    ntest: NodeTest,
    /// The node test resolved against the compiled query's [`Symbols`]
    /// table: `None` for a wildcard, otherwise the interned name. The
    /// per-event node-test check is a single integer compare against
    /// this — never a string compare.
    sym: Option<Sym>,
    children: Vec<u32>,
    /// For leaves: the constraining atomic predicate and its variable, or
    /// `None` when `TRUTH(u) = S` (any candidate is a real match).
    leaf_predicate: Option<(Expr, QueryNodeId)>,
    is_leaf: bool,
}

impl CNode {
    /// Whether an element or attribute named `name` passes this node's
    /// test. [`Sym::UNKNOWN`] (a name the table never interned) fails
    /// every named test and passes every wildcard, exactly like a fresh
    /// name would.
    #[inline]
    fn passes(&self, name: Sym) -> bool {
        match self.sym {
            None => true,
            Some(s) => s == name,
        }
    }
}

/// Resolves a node test against a symbol table (`None` = wildcard).
fn intern_ntest(symbols: &Symbols, ntest: &NodeTest) -> Option<Sym> {
    match ntest {
        NodeTest::Wildcard => None,
        NodeTest::Name(n) => Some(symbols.intern(n)),
    }
}

/// The element names a query's node tests mention: a bitset over sym
/// ids. [`Sym::UNKNOWN`] and syms interned after compilation lie beyond
/// its last word and are (correctly) not members.
#[derive(Debug, Clone)]
struct NameSet(Vec<u64>);

impl NameSet {
    /// The names of the element steps among `nodes` (`nodes[0]` is the
    /// query root, not a step), or `None` when some element step is a
    /// wildcard — such a query reacts to every tag. Attribute steps are
    /// left out: they are resolved from their parent's start tag and
    /// never compared against an element name.
    fn of(nodes: &[CNode]) -> Option<NameSet> {
        let steps = || nodes[1..].iter().filter(|n| n.axis != Axis::Attribute);
        if steps().any(|n| n.sym.is_none()) {
            return None;
        }
        let ids = || steps().filter_map(|n| n.sym).map(Sym::index);
        let mut words = vec![0u64; ids().max().map_or(0, |i| (i >> 6) + 1)];
        for i in ids() {
            words[i >> 6] |= 1 << (i & 63);
        }
        Some(NameSet(words))
    }

    #[inline]
    fn contains(&self, name: Sym) -> bool {
        let i = name.index();
        self.0.get(i >> 6).is_some_and(|w| w >> (i & 63) & 1 == 1)
    }

    /// The members' sym ids ([`Sym::index`]), ascending.
    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            // Each step clears the lowest set bit.
            let nonzero = |bits: u64| (bits != 0).then_some(bits);
            std::iter::successors(nonzero(word), move |&bits| nonzero(bits & (bits - 1)))
                .map(move |bits| w << 6 | bits.trailing_zeros() as usize)
        })
    }
}

/// The compiled form of a query accepted by the filter.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    nodes: Vec<CNode>,
    parents: Vec<u32>,
    root_children: Vec<u32>,
    /// The succession chain from the root to `OUT(Q)` (excluding the
    /// root). `out_path[m-1]` is the output node.
    pub(crate) out_path: Vec<u32>,
    /// For each node: its 1-based index on the output path, if any.
    pub(crate) path_index: Vec<Option<u16>>,
    /// For each 1-based output-path index: whether that step has a
    /// child axis (precomputed so spawning a filter from shared compiled
    /// state allocates nothing).
    pub(crate) out_axes_child: Vec<bool>,
    size: usize,
    source: String,
    /// The symbol table the node tests were resolved against. Events
    /// must reach the filter as syms from this same table (the owned
    /// [`Event`] entry points convert through it automatically).
    symbols: Arc<Symbols>,
    /// The element names the node tests mention (`None`: some element
    /// step is a wildcard). A tag outside it can select no record —
    /// Thm 8.8's frontier reacts to the query's own node tests only —
    /// so the filter does position bookkeeping for it and nothing else,
    /// and a bank need not deliver it at all.
    names: Option<NameSet>,
}

impl CompiledQuery {
    /// Compiles `q` against a fresh private [`Symbols`] table,
    /// verifying it lies in the supported fragment. To share one table
    /// across a bank (so one event conversion serves every query), use
    /// [`CompiledQuery::compile_with`].
    pub fn compile(q: &Query) -> Result<CompiledQuery, UnsupportedQuery> {
        CompiledQuery::compile_with(q, Arc::new(Symbols::new()))
    }

    /// Compiles `q`, interning its node tests into `symbols`.
    pub fn compile_with(
        q: &Query,
        symbols: Arc<Symbols>,
    ) -> Result<CompiledQuery, UnsupportedQuery> {
        // Fragment checks (§8: leaf-only-value-restricted univariate
        // conjunctive).
        for u in q.all_nodes() {
            if let Some(p) = q.predicate(u) {
                for c in p.conjuncts() {
                    if !is_atomic(c) {
                        return Err(UnsupportedQuery::NotConjunctive(u));
                    }
                    if c.vars().len() > 1 {
                        return Err(UnsupportedQuery::NotUnivariate(u));
                    }
                }
            }
        }
        let mut nodes = Vec::with_capacity(q.len());
        for u in q.all_nodes() {
            let leaf_predicate = match constraining_predicate(q, u) {
                Ok(p) => p.map(|(var, e)| (e, var)),
                Err(TruthError::NotUnivariate { node }) => {
                    return Err(UnsupportedQuery::NotUnivariate(node))
                }
                Err(TruthError::NotAtomic { node }) => {
                    return Err(UnsupportedQuery::NotConjunctive(node))
                }
                Err(TruthError::Eval(_)) => None,
            };
            let is_leaf = q.is_leaf(u);
            if !is_leaf && leaf_predicate.is_some() {
                return Err(UnsupportedQuery::NotLeafOnlyValueRestricted(u));
            }
            let ntest = q.ntest(u).cloned().unwrap_or(NodeTest::Wildcard);
            nodes.push(CNode {
                axis: q.axis(u).unwrap_or(Axis::Child),
                sym: intern_ntest(&symbols, &ntest),
                ntest,
                children: q.children(u).iter().map(|c| c.0).collect(),
                leaf_predicate: if is_leaf { leaf_predicate } else { None },
                is_leaf,
            });
        }
        let root_children = nodes[0].children.clone();
        let parents = q
            .all_nodes()
            .map(|u| q.parent(u).unwrap_or(q.root()).0)
            .collect();
        let mut out_path = Vec::new();
        let mut path_index = vec![None; q.len()];
        let mut cur = q.root();
        while let Some(next) = q.successor(cur) {
            out_path.push(next.0);
            path_index[next.index()] = Some(out_path.len() as u16);
            cur = next;
        }
        let out_axes_child = out_path
            .iter()
            .map(|&n| nodes[n as usize].axis != Axis::Descendant)
            .collect();
        Ok(CompiledQuery {
            names: NameSet::of(&nodes),
            nodes,
            parents,
            root_children,
            out_path,
            path_index,
            out_axes_child,
            size: q.len(),
            source: fx_xpath::to_xpath(q),
            symbols,
        })
    }

    /// The symbol table this query's node tests are resolved against.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Re-resolves the node tests against `symbols` (a no-op when it is
    /// already this query's table). Banks call this to unify queries
    /// compiled against different private tables onto one shared table,
    /// so a single per-event conversion serves the whole bank.
    pub fn bind(&mut self, symbols: &Arc<Symbols>) {
        if Arc::ptr_eq(&self.symbols, symbols) {
            return;
        }
        for n in &mut self.nodes {
            n.sym = intern_ntest(symbols, &n.ntest);
        }
        self.names = NameSet::of(&self.nodes);
        self.symbols = Arc::clone(symbols);
    }

    /// Whether a start or end tag named `name` can touch the frontier:
    /// false only when every element step is a named test and none of
    /// them is `name`.
    #[inline]
    fn mentions(&self, name: Sym) -> bool {
        self.names.as_ref().is_none_or(|set| set.contains(name))
    }

    /// The sym ids ([`Sym::index`]) of the element names the node tests
    /// mention, or `None` when some element step is a wildcard. The
    /// multi-query bank builds its per-name dispatch lists from the very
    /// set the filter's own fast path consults.
    pub(crate) fn element_names(&self) -> Option<impl Iterator<Item = usize> + '_> {
        self.names.as_ref().map(NameSet::indices)
    }

    /// The query size `|Q|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The XPath text the query was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The `(node-test sym, axis)` pairs of the query root's children —
    /// the records a fresh filter starts with. The indexed bank derives
    /// *dormancy triggers* from these: until some event selects one of
    /// them, a residual instance provably holds no state beyond its
    /// initial records and need not exist at all.
    pub(crate) fn root_child_specs(&self) -> impl Iterator<Item = (Option<Sym>, Axis)> + '_ {
        self.root_children
            .iter()
            .map(|&c| (self.nodes[c as usize].sym, self.nodes[c as usize].axis))
    }

    /// Whether the query can run in *reporting* (selection) mode:
    /// position reporting requires an element output node, since
    /// attributes carry no element ordinal.
    pub fn reporting_supported(&self) -> Result<(), UnsupportedQuery> {
        if self
            .out_path
            .iter()
            .any(|&n| self.nodes[n as usize].axis == Axis::Attribute)
        {
            return Err(UnsupportedQuery::AttributeOutput);
        }
        Ok(())
    }
}

/// One row of the frontier table (§8.2), extended with the offset stack.
#[derive(Debug, Clone)]
pub struct FrontierRecord {
    /// The query node this record tracks (`ref`).
    pub node: u32,
    /// Has a real match been found (`matched`)?
    pub matched: bool,
    /// The document level at which a child-axis candidate must appear;
    /// for descendant-axis records, the insertion level (candidates may be
    /// deeper).
    pub level: usize,
    /// Buffer offset of the string value of the innermost open candidacy
    /// (leaf records only).
    pub str_start: Option<usize>,
    /// Offsets of the open candidacies around the innermost one,
    /// outermost first. A record's candidacies nest only under leaf
    /// recursion (erratum #2), so this stays empty — and a record never
    /// allocates — everywhere else.
    pub outer_starts: Vec<usize>,
}

impl FrontierRecord {
    fn new(node: u32, matched: bool, level: usize) -> FrontierRecord {
        FrontierRecord {
            node,
            matched,
            level,
            str_start: None,
            outer_starts: Vec::new(),
        }
    }

    /// Pushes the offset of a candidacy opening inside the open ones.
    fn open_candidacy(&mut self, offset: usize) {
        if let Some(outer) = self.str_start.replace(offset) {
            self.outer_starts.push(outer);
        }
    }

    /// Pops the innermost open candidacy's offset.
    fn close_candidacy(&mut self) -> Option<usize> {
        let innermost = self.str_start.take()?;
        self.str_start = self.outer_starts.pop();
        Some(innermost)
    }
}

/// The streaming filter: feed it SAX events through
/// [`StreamFilter::process`] (or [`StreamFilter::process_spanned`], to
/// stamp reported matches with source byte spans) and read the verdict
/// at `endDocument`.
#[derive(Debug, Clone)]
pub struct StreamFilter {
    /// The compiled query, behind an [`Arc`] so many filters (e.g. the
    /// residual instances the indexed bank spawns per activation) share
    /// one compilation: constructing a filter from an existing handle is
    /// a reference-count bump, never a recompilation or deep clone.
    query: Arc<CompiledQuery>,
    /// All mutable per-document state, split from `query` so the event
    /// handlers borrow the compiled query and the state disjointly —
    /// no per-event `Arc` traffic, no cloning of compiled nodes.
    st: FilterState,
    /// Reused attribute buffer for the owned-event conversion layer.
    attr_scratch: AttrBuf,
    /// Lock-free name-lookup memo for the owned-event conversion layer.
    name_cache: SymCache,
}

/// The mutable half of a [`StreamFilter`]: the frontier table and every
/// per-document accumulator, plus the reused per-event scratch buffers
/// that keep the handlers allocation-free in steady state.
#[derive(Debug, Clone)]
struct FilterState {
    frontier: Vec<FrontierRecord>,
    buffer: String,
    buffer_refs: usize,
    current_level: usize,
    stats: SpaceStats,
    result: Option<bool>,
    /// Full-evaluation extension: present in reporting mode only.
    reporter: Option<Reporter>,
    /// Ordinal of the next element start (reporting mode).
    element_ordinal: u64,
    /// Old `matched` values of child-axis records removed at candidacy
    /// start, so reporting mode can restore them at reinsertion (keyed by
    /// (node, level), stack discipline).
    removed_matched: Vec<(u32, usize, bool)>,
    /// Bumped whenever some record's `matched` flag turns true; lets the
    /// multi-query bank re-run the (recursive) early-decision check only
    /// when it could possibly have changed.
    match_progress: u64,
    /// Reused per-event scratch: indices of child-axis records leaving
    /// the table at a `startElement`.
    scratch_remove: Vec<usize>,
    /// Reused per-event scratch: records spawned at a `startElement`.
    scratch_insert: Vec<FrontierRecord>,
    /// Reused per-event scratch: distinct parents folded at an
    /// `endElement`.
    scratch_parents: Vec<u32>,
    /// Reused per-event scratch: `(parent, all_matched, pred_matched)`
    /// fold results of an `endElement`.
    scratch_groups: Vec<(u32, bool, bool)>,
    /// The arguments of the last delivered `SpaceStats::observe` call:
    /// `(rows, stack entries, buffer bytes, level)`. A snapshot whose
    /// components are all ≤ these is dominated (the bits formula is
    /// monotone in every argument), so it cannot move any maximum and
    /// is skipped — most events of a steady stream don't re-enter the
    /// observation arithmetic at all.
    observe_snap: (usize, usize, usize, usize),
}

impl StreamFilter {
    /// Creates a filter for a supported query.
    pub fn new(q: &Query) -> Result<StreamFilter, UnsupportedQuery> {
        Ok(StreamFilter::from_compiled(CompiledQuery::compile(q)?))
    }

    /// Creates a filter from an already-compiled query (cheap; used by the
    /// multi-query engine to share compilation).
    pub fn from_compiled(query: CompiledQuery) -> StreamFilter {
        StreamFilter::from_shared(Arc::new(query))
    }

    /// Creates a filter from a *shared* compiled query: a reference-count
    /// bump plus empty per-document state — no recompilation, no deep
    /// clone, no per-step allocation. This is the indexed bank's
    /// activation hot path (one call per residual instance spawned).
    pub fn from_shared(query: Arc<CompiledQuery>) -> StreamFilter {
        let size = query.size();
        StreamFilter {
            query,
            st: FilterState {
                frontier: Vec::new(),
                buffer: String::new(),
                buffer_refs: 0,
                current_level: 0,
                stats: SpaceStats::new(size),
                result: None,
                reporter: None,
                element_ordinal: 0,
                removed_matched: Vec::new(),
                match_progress: 0,
                scratch_remove: Vec::new(),
                scratch_insert: Vec::new(),
                scratch_parents: Vec::new(),
                scratch_groups: Vec::new(),
                observe_snap: (0, 0, 0, 0),
            },
            attr_scratch: AttrBuf::new(),
            name_cache: SymCache::new(),
        }
    }

    /// Creates a filter in *reporting* mode: besides the boolean verdict,
    /// it reports the element ordinals (0-based `startElement` positions)
    /// of the nodes `FULLEVAL(Q, D)` selects. This is the full-evaluation
    /// extension the paper sketches in §1; it buffers unresolved candidate
    /// positions, the cost the paper's follow-up \[5\] proves unavoidable.
    pub fn new_reporting(q: &Query) -> Result<StreamFilter, UnsupportedQuery> {
        StreamFilter::from_compiled_reporting(CompiledQuery::compile(q)?)
    }

    /// Reporting-mode filter from an already-compiled query (cheap; used
    /// by the multi-query bank and the engine's selection mode).
    pub fn from_compiled_reporting(query: CompiledQuery) -> Result<StreamFilter, UnsupportedQuery> {
        StreamFilter::from_shared_reporting(Arc::new(query))
    }

    /// Reporting-mode filter from a *shared* compiled query — the
    /// selection-mode counterpart of [`StreamFilter::from_shared`].
    pub fn from_shared_reporting(
        query: Arc<CompiledQuery>,
    ) -> Result<StreamFilter, UnsupportedQuery> {
        query.reporting_supported()?;
        let mut f = StreamFilter::from_shared(query);
        f.st.reporter = Some(Reporter::default());
        Ok(f)
    }

    /// One-shot full evaluation: the ordinals of selected elements.
    pub fn run_reporting(q: &Query, events: &[Event]) -> Result<Vec<u64>, UnsupportedQuery> {
        let mut f = StreamFilter::new_reporting(q)?;
        f.process_all(events);
        Ok(f.matched_positions()
            .expect("endDocument delivers positions"))
    }

    /// In reporting mode, after `endDocument`: the sorted element
    /// ordinals selected by `FULLEVAL(Q, D)` that have **not** been
    /// drained through [`StreamFilter::drain_matches`].
    ///
    /// This is the legacy batch accessor, now a thin wrapper over the
    /// reporter's collecting outbox: when nothing drains matches
    /// incrementally (the `run_reporting` path) every confirmed position
    /// accumulates there and this returns the complete result set.
    pub fn matched_positions(&self) -> Option<Vec<u64>> {
        match (&self.st.reporter, self.st.result) {
            (Some(rep), Some(_)) => Some(rep.results()),
            _ => None,
        }
    }

    /// Drains every match confirmed since the last drain into `sink`,
    /// stamped with bank index `query`. The engine calls this after each
    /// event, so matches reach the consumer the moment the paper's
    /// frontier resolves their ancestor chains — not at `endDocument`.
    ///
    /// No-op in filtering (non-reporting) mode.
    pub fn drain_matches(&mut self, query: usize, sink: &mut dyn MatchSink) {
        if let Some(rep) = &mut self.st.reporter {
            if rep.outbox_is_empty() {
                return;
            }
            for (ordinal, span) in rep.drain_outbox() {
                sink.on_match(Match {
                    query,
                    ordinal,
                    span,
                });
            }
        }
    }

    /// Peak number of simultaneously buffered *unresolved* candidate
    /// positions (reporting mode) — the \[5\] buffering cost. Matches whose
    /// ancestor chains already resolved are emitted immediately and never
    /// counted here, and a position whose last enclosing candidate
    /// element closed without consuming it is dropped right there — no
    /// open element can complete its chain any more — instead of being
    /// carried to the root.
    pub fn peak_pending_positions(&self) -> usize {
        self.st.reporter.as_ref().map_or(0, |r| r.max_pendings)
    }

    /// True when this filter reports positions (selection mode).
    pub fn is_reporting(&self) -> bool {
        self.st.reporter.is_some()
    }

    /// Feeds a slice of events.
    pub fn process_all(&mut self, events: &[Event]) {
        for e in events {
            self.process(e);
        }
    }

    /// Feeds a whole stream and returns the verdict — the same shape as
    /// the automata baselines' `run_stream`, so comparative tests can
    /// treat all engines uniformly.
    pub fn run_stream(&mut self, events: &[Event]) -> Option<bool> {
        self.process_all(events);
        self.result()
    }

    /// Feeds one event without span information (matches then carry
    /// [`Span::EMPTY`]). Sources that know byte offsets use
    /// [`StreamFilter::process_spanned`].
    pub fn process(&mut self, event: &Event) {
        self.process_spanned(event, Span::EMPTY);
    }

    /// Feeds one event together with its source byte span, so reporting
    /// mode can stamp each confirmed match with the element's full
    /// source range (start tag through end tag).
    ///
    /// This is the owned-event conversion layer: names are resolved to
    /// [`Sym`]s through the compiled query's table (a memoized read-only
    /// lookup; unknown names become [`Sym::UNKNOWN`] and fail every
    /// named node test) and dispatch proceeds on integers. Sources that
    /// already hold interned events
    /// (`fx_xml::StreamingParser::feed_interned`) should call
    /// [`StreamFilter::process_sym`] directly and skip the lookup.
    pub fn process_spanned(&mut self, event: &Event, span: Span) {
        let mut scratch = std::mem::take(&mut self.attr_scratch);
        let ev = scratch.sym_event(&mut self.name_cache, self.query.symbols(), event);
        self.process_sym(ev, span);
        self.attr_scratch = scratch;
    }

    /// Feeds one *interned* event: the allocation-free hot path. The
    /// event's syms must come from this filter's compiled table
    /// ([`CompiledQuery::symbols`]) — feed the same table to the parser
    /// (`StreamingParser::with_symbols`) and the names meet as equal
    /// integers.
    pub fn process_sym(&mut self, event: SymEvent<'_>, span: Span) {
        // Disjoint borrows: the compiled query is read, the state is
        // mutated — no per-event refcount traffic, no cloning.
        let q: &CompiledQuery = &self.query;
        let st = &mut self.st;
        match event {
            SymEvent::StartDocument => st.start_document(q),
            SymEvent::EndDocument => st.end_document(q),
            SymEvent::StartElement { name, attributes } => {
                st.start_element(q, name, attributes, span)
            }
            SymEvent::EndElement { name } => st.end_element(q, name, span),
            SymEvent::Text { content } => st.text(content),
        }
        st.stats.events += 1;
        st.observe_at(st.current_level);
    }

    /// Brings a filter up to date with a stream position its bank kept
    /// for it: `skipped` events went by undelivered since the last one
    /// this filter processed — tags no node test mentions, text while
    /// nothing was buffering — leaving the stream at `level` / `ordinal`
    /// after climbing as deep as `deepest`. Such a stretch moves nothing
    /// but the position, so the frontier rows, offset-stack entries and
    /// buffer are those of every snapshot a filter fed each event would
    /// have taken along it; `instant_bits` is monotone in the level, so
    /// observing the one snapshot at `deepest` leaves [`SpaceStats`]
    /// exactly as that filter's.
    pub(crate) fn sync(&mut self, level: usize, ordinal: u64, skipped: u64, deepest: usize) {
        let st = &mut self.st;
        debug_assert!(
            deepest >= level && deepest >= st.current_level,
            "the high-water mark covers both ends of the skipped stretch"
        );
        debug_assert!(
            ordinal - st.element_ordinal <= skipped,
            "every skipped start tag is a skipped event"
        );
        debug_assert!(
            st.frontier.len() <= st.observe_snap.0
                && st.buffer_refs <= st.observe_snap.1
                && st.buffer.len() <= st.observe_snap.2,
            "a skipped filter's rows, stack entries and buffer were observed when it last ran"
        );
        st.stats.events += skipped;
        st.observe_at(deepest);
        st.current_level = level;
        st.element_ordinal = ordinal;
    }

    /// Whether some value-restricted leaf candidacy is open, i.e. the
    /// filter is buffering text — the only time a text event means
    /// anything to it.
    pub(crate) fn is_buffering(&self) -> bool {
        self.st.buffer_refs > 0
    }

    /// Feeds a whole interned [`EventBatch`] in one call: the batch is
    /// replayed into [`StreamFilter::process_sym`] with the attribute
    /// `scratch` hoisted out of the per-event loop, so the filter sees
    /// exactly the per-event stream but pays the call boundary once per
    /// run. The batch's syms must come from the same table as the
    /// compiled query.
    pub fn process_batch(&mut self, batch: &EventBatch, scratch: &mut AttrBuf) {
        batch.replay(scratch, |ev, span| self.process_sym(ev, span));
    }

    /// [`StreamFilter::process_batch`] with confirmed matches drained
    /// **once per batch** instead of once per event. The reporter's
    /// outbox is a FIFO, so a single filter's match order is exactly
    /// that of the per-event drain — only the sink-call granularity is
    /// amortized. (The multi-filter bank keeps per-event draining to
    /// preserve cross-filter match interleaving.)
    pub fn process_batch_to(
        &mut self,
        batch: &EventBatch,
        scratch: &mut AttrBuf,
        query: usize,
        sink: &mut dyn MatchSink,
    ) {
        self.process_batch(batch, scratch);
        self.drain_matches(query, sink);
    }

    /// The verdict, available after `endDocument`.
    pub fn result(&self) -> Option<bool> {
        self.st.result
    }

    /// Early decision: `Some(verdict)` as soon as the verdict can no
    /// longer change, even mid-document.
    ///
    /// In filtering mode the `matched` flags of the query root's child
    /// records are monotone (a real match is never revoked), so once
    /// every root child is matched the document is accepted regardless
    /// of the remaining events; conversely, a child-axis root child the
    /// root element failed to select can never match, deciding the
    /// document rejected at its very first tag. The multi-query bank
    /// uses both to stop feeding decided filters — the XFilter-style
    /// hot-path win. Reporting mode never decides early (every candidate
    /// must still be examined), and an undecided filter reports `None`
    /// until `endDocument`.
    pub fn decided(&self) -> Option<bool> {
        if self.st.result.is_some() {
            return self.st.result;
        }
        if self.st.reporter.is_some() {
            return None;
        }
        if self
            .query
            .root_children
            .iter()
            .all(|&v| self.st.satisfied_at(&self.query, v, 0))
        {
            return Some(true);
        }
        // Early FALSE: a child-axis root child's only possible candidate
        // is the document root element. While we are inside the root
        // (`current_level > 0`), a level-0 child-axis record still present
        // and unmatched with no open candidacy means the root's start tag
        // did not select it — its node test failed — so it can never
        // match and the conjunction is dead. This is the dominant
        // dissemination case: most `/doc[...]`-shaped filters die on the
        // root tag of a non-matching document.
        if self.st.current_level > 0 {
            let impossible = self.st.frontier.iter().any(|r| {
                r.level == 0
                    && !r.matched
                    && r.str_start.is_none()
                    && self.query.nodes[r.node as usize].axis == Axis::Child
            });
            if impossible {
                return Some(false);
            }
        }
        None
    }

    /// Monotone counter of decision-relevant transitions within the
    /// current document: match flags turning true, plus the root
    /// element's start (which can kill child-axis filters early).
    /// [`StreamFilter::decided`] can only flip on such a transition, so
    /// callers polling it per event (the multi-query bank) re-check only
    /// when this value moved — keeping the polling off the hot path.
    pub fn match_progress(&self) -> u64 {
        self.st.match_progress
    }

    /// Fast-forwards a freshly-started filter to document level
    /// `level`, as if it had processed `level` enclosing start tags
    /// none of which selected any record. Sound exactly when that is
    /// true — the indexed bank's dormant activations guarantee it (the
    /// first *selecting* event is the one that wakes the instance), in
    /// which case the skipped events could only have moved the level,
    /// the ordinal counter (compensated via the bank's ordinal offset)
    /// and the space statistics (intentionally not charged: the state
    /// genuinely never existed). Reporting mode needs nothing more: the
    /// reporter keeps frames for candidate elements only, and none of
    /// the missed ancestors was one.
    pub(crate) fn fast_forward(&mut self, level: usize) {
        self.st.current_level = level;
    }

    /// The space statistics of the current document (they restart at
    /// every `StartDocument`, so a reused filter reports exactly what a
    /// fresh one would).
    pub fn stats(&self) -> &SpaceStats {
        &self.st.stats
    }

    /// Peak logical memory, in bits — shorthand for `stats().max_bits`,
    /// mirroring the automata baselines' accessor of the same name.
    pub fn peak_memory_bits(&self) -> u64 {
        self.st.stats.max_bits
    }

    /// A snapshot of the frontier table (for tracing, cf. Fig. 22).
    pub fn frontier(&self) -> &[FrontierRecord] {
        &self.st.frontier
    }

    /// Renders a frontier record's node test (for traces).
    pub fn ntest_of(&self, node: u32) -> String {
        self.query.nodes[node as usize].ntest.to_string()
    }
}

/// The event handlers (Figs. 20–21), on the mutable half: each takes
/// the compiled query as a plain borrow, so reading node data and
/// mutating the frontier cost nothing beyond the work itself.
impl FilterState {
    /// See [`StreamFilter::decided`]: whether query node `u`, expected
    /// at frontier level `level`, is already guaranteed a real match.
    /// Either its record is matched, or `u` is mid-candidacy (child-axis
    /// records leave the table then) and every child is satisfied one
    /// level deeper — in which case the candidacy's close is guaranteed
    /// to fold `u` to matched, because matched flags are monotone in
    /// filtering mode.
    fn satisfied_at(&self, q: &CompiledQuery, u: u32, level: usize) -> bool {
        if self
            .frontier
            .iter()
            .any(|r| r.node == u && r.level == level && r.matched)
        {
            return true;
        }
        let n = &q.nodes[u as usize];
        if n.is_leaf || n.axis == Axis::Attribute {
            return false;
        }
        n.children
            .iter()
            .all(|&c| self.satisfied_at(q, c, level + 1))
    }

    fn start_document(&mut self, q: &CompiledQuery) {
        // The document root is, by definition, the unique candidate match
        // for ROOT(Q); its children enter the frontier at level 0.
        self.frontier.clear();
        self.buffer.clear();
        self.buffer_refs = 0;
        self.current_level = 0;
        self.result = None;
        self.element_ordinal = 0;
        self.removed_matched.clear();
        self.match_progress = 0;
        // Statistics are per document: the peaks restart here, so a
        // reused (session) or pooled (indexed bank) filter reports
        // exactly what a freshly built one would.
        self.stats = SpaceStats::new(q.size());
        self.observe_snap = (0, 0, 0, 0);
        if let Some(rep) = &mut self.reporter {
            rep.reset();
        }
        for &v in &q.root_children {
            self.frontier.push(FrontierRecord::new(v, false, 0));
        }
    }

    /// Takes the post-event space snapshot at document level `level`
    /// unless the last delivered one dominates it.
    fn observe_at(&mut self, level: usize) {
        // `buffer_refs` counts the open leaf candidacies, which is
        // exactly the total of per-record offset-stack entries.
        let snap = (
            self.frontier.len(),
            self.buffer_refs,
            self.buffer.len(),
            level,
        );
        let dominated = snap.0 <= self.observe_snap.0
            && snap.1 <= self.observe_snap.1
            && snap.2 <= self.observe_snap.2
            && snap.3 <= self.observe_snap.3;
        if !dominated {
            // The snapshot must be a tuple that was actually observed —
            // a pointwise max of several would dominate points whose
            // bits exceed every real observation.
            self.observe_snap = snap;
            self.stats.observe(snap.0, snap.1, snap.2, snap.3);
        }
    }

    fn start_element(&mut self, q: &CompiledQuery, name: Sym, attributes: &[SymAttr], span: Span) {
        let lvl = self.current_level;
        self.current_level = lvl + 1;
        let ordinal = self.element_ordinal;
        self.element_ordinal += 1;
        if lvl == 0 {
            // The root element's start is decision-relevant even when no
            // match flag moves: an unselected child-axis root child is
            // dead from here on (see `decided`).
            self.match_progress += 1;
        }
        // A name no node test mentions selects no record (the scan below
        // would reject every row on its node test): the position moved
        // and nothing else did.
        if !q.mentions(name) {
            return;
        }
        let reporting = self.reporter.is_some();
        // One pass over the pre-existing records: select the frontier
        // records for which this element is a candidate match (Fig. 20
        // lines 1–4) and process each selection in place — leaves begin
        // buffering; internal nodes spawn child records (and child-axis
        // records temporarily leave the table, Fig. 20 lines 10–11).
        // Selection reads only the record under the cursor, so fusing
        // the passes changes nothing; removals and insertions are staged
        // in reused scratch buffers and applied after the scan, keeping
        // the original table order and the whole pass allocation-free.
        // In reporting mode, records on the output path stay candidates
        // even after a real match was found elsewhere: full evaluation
        // must examine *every* candidate, not stop at the first.
        debug_assert!(self.scratch_remove.is_empty() && self.scratch_insert.is_empty());
        for i in 0..self.frontier.len() {
            let rec = &self.frontier[i];
            let node = rec.node;
            // Cheapest rejections first: the node test (one integer
            // compare) and the level check throw out almost every
            // (record, event) pair before any further loads.
            let n = &q.nodes[node as usize];
            if !n.passes(name) {
                continue;
            }
            let level_ok = match n.axis {
                Axis::Descendant => lvl >= rec.level,
                Axis::Attribute => false, // resolve from start tags below
                _ => lvl == rec.level,
            };
            if !level_ok {
                continue;
            }
            if rec.matched && !(reporting && q.path_index[node as usize].is_some()) {
                continue;
            }
            if let (Some(rep), Some(idx)) = (&mut self.reporter, q.path_index[node as usize]) {
                let out_leaf_unrestricted =
                    n.is_leaf && n.leaf_predicate.is_none() && idx as usize == q.out_path.len();
                rep.select(lvl, ordinal, span.start, idx, out_leaf_unrestricted);
            }
            if n.is_leaf {
                if n.leaf_predicate.is_some() {
                    self.buffer_refs += 1;
                    self.frontier[i].open_candidacy(self.buffer.len());
                } else {
                    // TRUTH(u) = S: any candidate is a real match; decide
                    // now and skip buffering.
                    self.frontier[i].matched = true;
                    self.match_progress += 1;
                }
            } else {
                if n.axis == Axis::Child {
                    if reporting {
                        self.removed_matched
                            .push((node, lvl, self.frontier[i].matched));
                    }
                    self.scratch_remove.push(i);
                }
                for &v in &n.children {
                    let vn = &q.nodes[v as usize];
                    if vn.axis == Axis::Attribute {
                        // Attributes arrive with this very start tag:
                        // resolve immediately.
                        let matched = attributes.iter().any(|a| {
                            vn.passes(a.name)
                                && vn.children.is_empty()
                                && Self::value_in_truth(vn, &a.value)
                        });
                        if let Some(w) = attributes
                            .iter()
                            .find(|a| vn.passes(a.name))
                            .map(|a| a.value.chars().count())
                        {
                            self.stats.observe_text_width(w);
                        }
                        if matched {
                            self.match_progress += 1;
                        }
                        self.scratch_insert
                            .push(FrontierRecord::new(v, matched, lvl + 1));
                    } else {
                        self.scratch_insert
                            .push(FrontierRecord::new(v, false, lvl + 1));
                    }
                }
            }
        }
        // Apply removals back-to-front so indices stay valid.
        while let Some(i) = self.scratch_remove.pop() {
            self.frontier.remove(i);
        }
        self.frontier.append(&mut self.scratch_insert);
    }

    fn value_in_truth(node: &CNode, value: &str) -> bool {
        match &node.leaf_predicate {
            None => true,
            Some((expr, var)) => fx_xpath::eval_with_binding(expr, *var, value).unwrap_or(false),
        }
    }

    fn text(&mut self, content: &str) {
        if self.buffer_refs > 0 {
            self.buffer.push_str(content);
        }
    }

    fn end_element(&mut self, q: &CompiledQuery, name: Sym, span: Span) {
        // Saturate on malformed streams (the paper lets algorithms behave
        // arbitrarily on them, but we must not crash: the lower-bound
        // prober feeds crossed prefix/suffix pairs that may be malformed).
        self.current_level = self.current_level.saturating_sub(1);
        let lvl = self.current_level;
        // A name no node test mentions ends no leaf candidacy, so unless
        // state hangs below the closing level — records to fold (rows
        // are level-sorted: spawned at the deepest level, folded from
        // it) or a candidate frame to close — only the position moved.
        // On a well-formed stream that state never exists here (the
        // matching start tag selected nothing); the guard keeps crossed
        // streams, which may close anything with any name, on the full
        // path.
        if !q.mentions(name)
            && self.frontier.last().is_none_or(|r| r.level <= lvl)
            && !self.reporter.as_ref().is_some_and(|r| r.is_open_at(lvl))
        {
            return;
        }

        // 1. Leaf records whose candidacy ends here: evaluate the buffered
        //    string value against TRUTH(u) (Fig. 21 lines 2–10).
        let reporting = self.reporter.is_some();
        let out_node = q.out_path.last().copied();
        let mut out_leaf_value: Option<bool> = None;
        for i in 0..self.frontier.len() {
            let node = self.frontier[i].node;
            let n = &q.nodes[node as usize];
            if !n.passes(name) {
                continue;
            }
            if !n.is_leaf || n.leaf_predicate.is_none() || n.axis == Axis::Attribute {
                continue;
            }
            let level_ok = match n.axis {
                Axis::Descendant => lvl >= self.frontier[i].level,
                _ => lvl == self.frontier[i].level,
            };
            if !level_ok {
                continue;
            }
            let Some(start) = self.frontier[i].close_candidacy() else {
                continue;
            };
            let value = &self.buffer[start..];
            self.stats.observe_text_width(value.chars().count());
            let needs_value = !self.frontier[i].matched || (reporting && Some(node) == out_node);
            if needs_value {
                let ok = Self::value_in_truth(n, value);
                self.frontier[i].matched |= ok;
                if ok {
                    self.match_progress += 1;
                }
                if reporting && Some(node) == out_node {
                    out_leaf_value = Some(ok);
                }
            }
            self.buffer_refs -= 1;
            if self.buffer_refs == 0 {
                self.buffer.clear();
            }
        }

        // 2. Child records of candidates ending at this element: group by
        //    parent, conjoin their matched flags, and fold into the parent
        //    record (Fig. 21 lines 11–29, with `matched ∨= m`).
        debug_assert!(self.scratch_parents.is_empty() && self.scratch_groups.is_empty());
        for rec in &self.frontier {
            if rec.level > lvl {
                let p = q.parents[rec.node as usize];
                if !self.scratch_parents.contains(&p) {
                    self.scratch_parents.push(p);
                }
            }
        }
        for pi in 0..self.scratch_parents.len() {
            let p = self.scratch_parents[pi];
            // The successor child does not participate in the *predicate*
            // conjunction (it is the output-path continuation).
            let successor =
                q.path_index[p as usize].and_then(|idx| q.out_path.get(idx as usize).copied());
            let mut all_matched = true;
            let mut pred_matched = true;
            let mut k = 0;
            while k < self.frontier.len() {
                let rec = &self.frontier[k];
                if rec.level > lvl && q.parents[rec.node as usize] == p {
                    all_matched &= rec.matched;
                    if Some(rec.node) != successor {
                        pred_matched &= rec.matched;
                    }
                    self.frontier.remove(k);
                } else {
                    k += 1;
                }
            }
            self.scratch_groups.push((p, all_matched, pred_matched));
            if all_matched {
                self.match_progress += 1;
            }
            let pn = &q.nodes[p as usize];
            if pn.axis == Axis::Descendant {
                // The record(s) for p are still in the table; accumulate
                // into every live candidacy (under parent recursion the
                // same element is a candidate for each of them).
                for rec in self.frontier.iter_mut().filter(|r| r.node == p) {
                    rec.matched |= all_matched;
                }
            } else {
                // Reinsert the temporarily-removed child-axis record. In
                // reporting mode a matched record may have been re-spawned
                // for a later candidate; restore its previous flag.
                let was_matched = if self.reporter.is_some() {
                    match self
                        .removed_matched
                        .iter()
                        .rposition(|&(n, l, _)| n == p && l == lvl)
                    {
                        Some(pos) => self.removed_matched.remove(pos).2,
                        None => false,
                    }
                } else {
                    false
                };
                self.frontier
                    .push(FrontierRecord::new(p, was_matched || all_matched, lvl));
            }
        }
        self.scratch_parents.clear();
        if let Some(rep) = &mut self.reporter {
            rep.close_element(
                lvl,
                &self.scratch_groups,
                out_leaf_value,
                &q.out_path,
                &q.out_axes_child,
                span.end,
            );
        }
        self.scratch_groups.clear();
    }

    fn end_document(&mut self, q: &CompiledQuery) {
        // The document root is a real match for ROOT(Q) iff every child of
        // ROOT(Q) found a real match.
        let verdict = q
            .root_children
            .iter()
            .all(|&v| self.frontier.iter().any(|r| r.node == v && r.matched));
        self.result = Some(verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    fn filter(qs: &str, xml: &str) -> bool {
        let q = parse_query(qs).unwrap();
        let events = fx_xml::parse(xml).unwrap();
        StreamFilter::new(&q).unwrap().run_stream(&events).unwrap()
    }

    fn agree(qs: &str, xml: &str) {
        let q = parse_query(qs).unwrap();
        let d = fx_dom::Document::from_xml(xml).unwrap();
        let expected = fx_eval::bool_eval(&q, &d).unwrap();
        let events = fx_xml::parse(xml).unwrap();
        let got = StreamFilter::new(&q).unwrap().run_stream(&events).unwrap();
        assert_eq!(got, expected, "{qs} on {xml}");
    }

    #[test]
    fn paper_fig22_query_on_matching_document() {
        assert!(filter(
            "/a[c[.//e and f] and b]",
            "<a><c><d/><e/><f/></c><b/><c/></a>"
        ));
    }

    #[test]
    fn paper_theorem_queries() {
        agree(
            "/a[c[.//e and f] and b > 5]",
            "<a><c><e/><f/></c><b>6</b></a>",
        );
        agree(
            "/a[c[.//e and f] and b > 5]",
            "<a><b>6</b><c><f/><f/></c></a>",
        );
        agree("//a[b and c]", "<a><b/><a><b/><a/><c/></a></a>");
        agree("//a[b and c]", "<a><b/><a><a/><c/></a></a>");
        agree("/a/b", "<a><Z><Z/></Z><b/><Z><Z/></Z></a>");
        agree("/a/b", "<a><Z><Z/><b/><Z/></Z></a>");
    }

    #[test]
    fn recursion_does_not_clobber_inner_match() {
        // Erratum #1: the inner <a> matches; a later outer failure must
        // not reset the flag.
        agree("//a[b and c]", "<a><a><b/><c/></a></a>");
        assert!(filter("//a[b and c]", "<a><a><b/><c/></a></a>"));
        // And deeper stacks of failures around a success.
        assert!(filter("//a[b and c]", "<a><a><a><b/><c/></a></a><x/></a>"));
    }

    #[test]
    fn recursive_leaf_buffer_offsets() {
        // Erratum #2: Q = //a[.//e > 5] on <a><e>7<e>3</e></e></a> — the
        // outer e's value "73" passes even though the inner "3" fails.
        agree("//a[.//e > 5]", "<a><e>7<e>3</e></e></a>");
        assert!(filter("//a[.//e > 5]", "<a><e>7<e>3</e></e></a>"));
        // Inner passes, outer fails (outer strval "09" = 9 > 5 too, so use
        // the reference agreement to keep the oracle honest).
        agree("//a[.//e > 5]", "<a><e>0<e>9</e></e></a>");
        // Neither passes: outer strval "01" = 1, inner "1".
        assert!(!filter("//a[.//e > 5]", "<a><e>0<e>1</e></e></a>"));
        agree("//a[.//e > 5]", "<a><e>0<e>1</e></e></a>");
    }

    #[test]
    fn value_predicates() {
        agree("/a[b > 5]", "<a><b>3</b><b>7</b></a>");
        agree("/a[b > 5]", "<a><b>3</b><b>5</b></a>");
        agree("/a[b = \"xy\"]", "<a><b>x<c>y</c></b></a>");
        agree(
            "/a[contains(b, \"needle\")]",
            "<a><b>hay needle stack</b></a>",
        );
        agree("/a[contains(b, \"needle\")]", "<a><b>haystack</b></a>");
    }

    #[test]
    fn attribute_queries() {
        agree("/a[@id = 7]", r#"<a id="7"/>"#);
        agree("/a[@id = 7]", r#"<a id="8"/>"#);
        agree("/a/@id", r#"<a id="7"/>"#);
        agree("/a/@id", "<a/>");
        agree("/a[@id and b]", r#"<a id="1"><b/></a>"#);
        agree("//a[@k = \"v\"]", r#"<r><a k="x"/><a k="v"/></r>"#);
    }

    #[test]
    fn wildcards() {
        agree("/a/*/b", "<a><x><b/></x></a>");
        agree("/a/*/b", "<a><b/></a>");
        agree("/a[*/b > 5]", "<a><q><b>9</b></q></a>");
    }

    #[test]
    fn sibling_candidates_sequential() {
        agree("/a/b[c]", "<a><b><x/></b><b><c/></b></a>");
        agree("/a/b[c]", "<a><b><x/></b><b><y/></b></a>");
    }

    #[test]
    fn deep_documents() {
        // /a/b must not fire on deeper b's.
        let deep = format!("<a>{}<b/>{}</a>", "<Z>".repeat(30), "</Z>".repeat(30));
        agree("/a/b", &deep);
        let inside = format!(
            "<a>{}{}</a>",
            "<Z>".repeat(30),
            "<b/>".to_owned() + &"</Z>".repeat(30)
        );
        agree("/a/b", &inside);
    }

    #[test]
    fn frontier_stays_at_fs_for_fig22_query() {
        // FS(/a[c[.//e and f] and b]) = 3; the frontier table must never
        // exceed 3 rows (§8.4: "As the frontier size is 3 for this query,
        // there are at most 3 tuples in the system").
        let q = parse_query("/a[c[.//e and f] and b]").unwrap();
        let events = fx_xml::parse("<a><c><d/><e/><f/></c><b/><c/></a>").unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&events);
        assert_eq!(f.result(), Some(true));
        assert!(f.stats().max_rows <= 3, "max rows = {}", f.stats().max_rows);
    }

    #[test]
    fn frontier_grows_with_recursion_depth() {
        // On documents of recursion depth r, the table holds Θ(r) rows.
        let q = parse_query("//a[b and c]").unwrap();
        let mut sizes = Vec::new();
        for r in [1usize, 4, 16] {
            let xml = format!("{}{}", "<a><b/>".repeat(r), "</a>".repeat(r));
            let events = fx_xml::parse(&xml).unwrap();
            let mut f = StreamFilter::new(&q).unwrap();
            f.process_all(&events);
            sizes.push(f.stats().max_rows);
        }
        assert!(sizes[1] > sizes[0]);
        assert!(sizes[2] > sizes[1]);
        assert!(sizes[2] >= 16, "{sizes:?}");
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        for src in ["/a[b or c]", "/a[not(b)]", "/a[b > c]", "/a[b[c] > 5]"] {
            let q = parse_query(src).unwrap();
            assert!(StreamFilter::new(&q).is_err(), "{src}");
        }
    }

    #[test]
    fn empty_and_trivial_documents() {
        agree("/a", "<a/>");
        agree("/a", "<b/>");
        agree("//x", "<a><b><x/></b></a>");
        agree("//x", "<a><b/></a>");
    }

    #[test]
    fn text_outside_buffering_is_free() {
        let q = parse_query("/a[b]").unwrap();
        let xml = format!("<a><c>{}</c><b/></a>", "t".repeat(1000));
        let events = fx_xml::parse(&xml).unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&events);
        assert_eq!(f.result(), Some(true));
        // No leaf record was buffering under <c> (b is unrestricted), so
        // the buffer stays empty.
        assert_eq!(f.stats().max_buffer_bytes, 0);
    }

    #[test]
    fn tags_the_query_does_not_name_still_move_the_position() {
        // <zz> selects nothing, so its tags take the bookkeeping-only
        // path — which must still count the events, the element ordinal
        // and the level the three live rows (//a, b, c) are charged at.
        let q = parse_query("//a[b and c]").unwrap();
        let spanned = fx_xml::parse_spanned("<r><a><b/><zz><zz/></zz><c/></a></r>").unwrap();
        let mut f = StreamFilter::new_reporting(&q).unwrap();
        for (event, span) in &spanned {
            f.process_spanned(event, *span);
        }
        assert_eq!(f.result(), Some(true));
        assert_eq!(f.matched_positions(), Some(vec![1]));
        let stats = f.stats();
        assert_eq!(stats.events, spanned.len() as u64);
        assert_eq!((stats.max_rows, stats.max_level), (3, 4));
        assert_eq!(stats.max_bits, 3 * stats.bits_per_row(4));
        // And a mismatched end tag — no tokenizer emits one, the
        // lower-bound prober does — still folds what hangs below it.
        let crossed = [
            Event::StartDocument,
            Event::start("a"),
            Event::start("b"),
            Event::end("b"),
            Event::start("c"),
            Event::end("c"),
            Event::end("zz"),
            Event::EndDocument,
        ];
        assert_eq!(
            StreamFilter::new(&q).unwrap().run_stream(&crossed),
            Some(true)
        );
    }

    #[test]
    fn buffer_is_released_after_use() {
        let q = parse_query("/a[b > 5 and c]").unwrap();
        let xml = "<a><b>123456</b><c/></a>";
        let events = fx_xml::parse(xml).unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        for e in &events {
            f.process(e);
        }
        assert_eq!(f.result(), Some(true));
        assert_eq!(f.stats().max_buffer_bytes, 6);
        assert!(
            f.st.buffer.is_empty(),
            "buffer must be reset when refcount hits 0"
        );
    }

    #[test]
    fn repeated_runs_reset_state() {
        let q = parse_query("/a[b]").unwrap();
        let yes = fx_xml::parse("<a><b/></a>").unwrap();
        let no = fx_xml::parse("<a><c/></a>").unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&yes);
        assert_eq!(f.result(), Some(true));
        f.process_all(&no);
        assert_eq!(f.result(), Some(false));
        f.process_all(&yes);
        assert_eq!(f.result(), Some(true));
    }
}
