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
//! corrections:
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
//!
//! Each tag is one in-order pass over the frontier table, and an end tag
//! keeps one rule: *every child record leaves before any parent is
//! updated*. A descendant-axis node can have a record the closing element
//! is a candidate for and one the element itself spawned; an update made
//! while the second is still in the table hands it the first one's match.
//! On `//z/a[d and .//a[b]]` over `<z><a><z><a><d/><b/></a></z></a></z>`,
//! the inner `<a>` with its `<b/>` matches the outer `<a>`'s `.//a[b]`;
//! reaching the inner `<a>`'s own `.//a` record too would accept the
//! document, though no `<a>` lies below the inner one.

use crate::evaluator::sealed::Horizoned;
use crate::evaluator::Evaluator;
use crate::reporter::{Match, MatchSink, Reporter};
use crate::space::SpaceStats;
use fx_xml::{
    AttrBuf, Event, EventBatch, Horizon, Span, Sym, SymAttr, SymCache, SymEvent, Symbols,
};
use fx_xpath::truth::{constraining_predicate, is_atomic};
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

    /// Decides, building nothing, whether `q` compiles — and, when
    /// `reporting`, whether it can also report positions: exactly the
    /// `Err` that [`CompiledQuery::compile_with`] followed by
    /// [`CompiledQuery::reporting_supported`] would return, which is why
    /// `compile_with` runs this very check. A bank or a server decides a
    /// subscription with it and compiles only what it keeps.
    pub fn check(q: &Query, reporting: bool) -> Result<(), UnsupportedQuery> {
        // §8: leaf-only-value-restricted univariate conjunctive.
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
        // Every conjunct is now atomic and univariate, so no node's
        // constraining predicate is an error, and only an internal node's
        // can break a rule.
        if let Some(u) = q
            .all_nodes()
            .find(|&u| !q.is_leaf(u) && matches!(constraining_predicate(q, u), Ok(Some(_))))
        {
            return Err(UnsupportedQuery::NotLeafOnlyValueRestricted(u));
        }
        if reporting {
            let out_path = std::iter::successors(q.successor(q.root()), |&u| q.successor(u));
            attribute_output(out_path.map(|u| q.axis(u).unwrap_or(Axis::Child)))?;
        }
        Ok(())
    }

    /// Compiles `q`, interning its node tests into `symbols`.
    pub fn compile_with(
        q: &Query,
        symbols: Arc<Symbols>,
    ) -> Result<CompiledQuery, UnsupportedQuery> {
        CompiledQuery::check(q, false)?;
        let mut nodes = Vec::with_capacity(q.len());
        for u in q.all_nodes() {
            let is_leaf = q.is_leaf(u);
            // `check` ruled out every error and every value-restricted
            // internal node.
            let leaf_predicate = match constraining_predicate(q, u) {
                Ok(Some((var, e))) if is_leaf => Some((e, var)),
                _ => None,
            };
            let ntest = q.ntest(u).cloned().unwrap_or(NodeTest::Wildcard);
            nodes.push(CNode {
                axis: q.axis(u).unwrap_or(Axis::Child),
                sym: intern_ntest(&symbols, &ntest),
                ntest,
                children: q.children(u).iter().map(|c| c.0).collect(),
                leaf_predicate,
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
    pub(crate) fn mentions(&self, name: Sym) -> bool {
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
        attribute_output(self.out_path.iter().map(|&n| self.nodes[n as usize].axis))
    }
}

/// The reporting rule over the axes of the output path: an attribute
/// step leaves the output node without an element ordinal.
fn attribute_output(mut out_axes: impl Iterator<Item = Axis>) -> Result<(), UnsupportedQuery> {
    if out_axes.any(|axis| axis == Axis::Attribute) {
        return Err(UnsupportedQuery::AttributeOutput);
    }
    Ok(())
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

/// `Vec::retain_mut` as one plain in-order loop: with the handlers'
/// predicates, `retain_mut` measured about 10 % slower than this loop
/// per filter pass on XMark documents (x86-64 Xeon, 2 vCPUs).
fn retain_in_order(
    rows: &mut Vec<FrontierRecord>,
    mut keep: impl FnMut(&mut FrontierRecord) -> bool,
) {
    let mut kept = 0;
    for i in 0..rows.len() {
        if keep(&mut rows[i]) {
            if kept < i {
                rows.swap(kept, i);
            }
            kept += 1;
        }
    }
    rows.truncate(kept);
}

/// The streaming filter: feed it SAX events through
/// [`StreamFilter::process`] and read the verdict at `endDocument`.
///
/// Interned events enter through [`Evaluator::event`], as they do every
/// bank; a tokenizer drives it through a [`crate::HorizonFeed`], which
/// passes over what lies past the filter's horizon. In reporting mode
/// every confirmed match leaves through the sink handed in with the
/// closing event ([`Evaluator::event`], [`StreamFilter::process_to`]),
/// stamped with bank index 0 — the filter holds no match once that call
/// returns. The sink-less forms (`process`, `process_batch`) are the
/// filtering forms: in reporting mode they discard what they confirm.
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
    /// The owned-event conversion layer's hold on the table's name view.
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
    /// `(node, level, matched)` of each child-axis record that left the
    /// table at a candidate's start tag (reporting mode), so the end tag
    /// that reinserts it can restore a flag an earlier candidacy set. A
    /// stack: an end tag reads only the entries its own start tag pushed
    /// — the top ones, at its level — and truncates them.
    removed_matched: Vec<(u32, usize, bool)>,
    /// Bumped whenever some record's `matched` flag turns true; lets the
    /// multi-query bank re-run the (recursive) early-decision check only
    /// when it could possibly have changed.
    match_progress: u64,
    /// Reused per-event scratch: records spawned at a `startElement`.
    scratch_insert: Vec<FrontierRecord>,
    /// Reused per-event scratch: `(parent, all_matched, pred_matched)`
    /// fold results of an `endElement`, one per distinct parent in order
    /// of its first child record in the table.
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
                scratch_insert: Vec::new(),
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

    /// Feeds one event: the filtering form, discarding any match it
    /// confirms in reporting mode.
    pub fn process(&mut self, event: &Event) {
        self.process_to(event, Span::EMPTY, 0, &mut |_: Match| {});
    }

    /// Feeds one event together with its source byte span, handing
    /// every match it confirms to `sink`, stamped with bank index
    /// `query` and the element's full source range (start tag through
    /// end tag; [`Span::EMPTY`] when `span` is).
    ///
    /// This is the owned-event conversion layer: names are resolved to
    /// [`Sym`]s through the compiled query's table (one lock-free read-only
    /// probe; unknown names become [`Sym::UNKNOWN`] and fail every
    /// named node test) and dispatch proceeds on integers. Sources that
    /// already hold interned events
    /// (`fx_xml::StreamingParser::feed_interned`) should call
    /// [`Evaluator::event`] directly and skip the lookup.
    pub fn process_to(
        &mut self,
        event: &Event,
        span: Span,
        query: usize,
        sink: &mut dyn MatchSink,
    ) {
        let mut scratch = std::mem::take(&mut self.attr_scratch);
        let ev = scratch.sym_event(&mut self.name_cache, self.query.symbols(), event);
        self.process_sym_to(ev, span, query, sink);
        self.attr_scratch = scratch;
    }

    /// Feeds one *interned* event: the allocation-free hot path under
    /// [`Evaluator::event`], and the entry a bank drives each of its
    /// filters through. The event's syms must come from this filter's
    /// compiled table ([`CompiledQuery::symbols`]). In reporting mode,
    /// each match the event confirms (an end tag is the only event that
    /// confirms any) goes to `sink`, stamped with bank index `query`,
    /// before this call returns.
    pub(crate) fn process_sym_to(
        &mut self,
        event: SymEvent<'_>,
        span: Span,
        query: usize,
        sink: &mut dyn MatchSink,
    ) {
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
            SymEvent::EndElement { name } => st.end_element(q, name, span, query, sink),
            SymEvent::Text { content } => st.text(content),
        }
        st.stats.events += 1;
        st.observe_at(st.current_level);
    }

    /// Ends a document none of whose events but its framing reached the
    /// filter — `events` events in all, taking the stream as deep as
    /// `deepest` — leaving what `StartDocument`, [`Horizoned::sync`]
    /// over the rest and `EndDocument` would: the verdict of the
    /// untouched frontier (no root child matched) and the space
    /// statistics of its initial rows at `deepest`, without running
    /// any of them. The frontier itself keeps the previous document's
    /// rows; the bank resets the filter before it delivers it another
    /// event.
    pub(crate) fn settle_untouched(&mut self, events: u64, deepest: usize) {
        let (q, st) = (&*self.query, &mut self.st);
        st.stats = SpaceStats::new(q.size());
        // The one snapshot that dominates the document's: `instant_bits`
        // is monotone in the level.
        st.stats.observe(q.root_children.len(), 0, 0, deepest);
        st.stats.events = events;
        st.result = Some(q.root_children.is_empty());
        if let Some(rep) = &mut st.reporter {
            rep.reset();
        }
    }

    /// Whether some value-restricted leaf candidacy is open, i.e. the
    /// filter is buffering text — the only time a text event means
    /// anything to it.
    pub(crate) fn is_buffering(&self) -> bool {
        self.st.buffer_refs > 0
    }

    /// Feeds a whole interned [`EventBatch`] in one call: the batch is
    /// replayed into [`Evaluator::event`] with the attribute
    /// `scratch` hoisted out of the per-event loop, so the filter sees
    /// exactly the per-event stream but pays the call boundary once per
    /// run. The batch's syms must come from the same table as the
    /// compiled query. A filtering form: in reporting mode, matches are
    /// discarded.
    pub fn process_batch(&mut self, batch: &EventBatch, scratch: &mut AttrBuf) {
        batch.replay(scratch, |ev, span| {
            self.process_sym_to(ev, span, 0, &mut |_: Match| {})
        });
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

/// A lone filter stamps its matches with bank index 0.
impl Evaluator for StreamFilter {
    fn symbols(&self) -> &Arc<Symbols> {
        self.query.symbols()
    }

    #[inline]
    fn event(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        self.process_sym_to(event, span, 0, sink);
    }
}

/// The lone filter is the one evaluator with a horizon.
impl Horizoned for StreamFilter {
    const HAS_HORIZON: bool = true;

    /// The filter's *horizon*: `Some` when no text event can change its
    /// state and no element opening at a depth (open elements around
    /// it) greater than its `level` can either, unless it
    /// [`Horizoned::sees`] the element's name. The level is the
    /// deepest holding a frontier row or an open reporter frame: a
    /// child-axis row fires only at its own level. `None` while a leaf
    /// candidacy buffers text, or while a wildcard descendant row can
    /// fire. In filtering mode a matched row fires no more, so a decided
    /// document's horizon is typically its root level and it sees no
    /// name: the rest of the document can be passed over. What is
    /// passed over is handed back through [`Horizoned::sync`] before
    /// the next event ([`crate::HorizonFeed`] keeps that protocol).
    ///
    /// Computed from the frontier on every call (a handful of rows): a
    /// tokenizer asks once per event it delivers, and the banks never
    /// ask, so the handlers keep no horizon state.
    fn horizon(&self) -> Option<(Horizon, u64)> {
        self.st.horizon(&self.query)
    }

    /// Whether a start tag named `name` can fire a row below the
    /// [`Horizoned::horizon`]: whether a descendant-axis row that can
    /// still fire tests that name.
    fn sees(&self, name: &str) -> bool {
        let q = &*self.query;
        (self.st.fireable_descendants(q))
            .any(|rec| matches!(&q.nodes[rec.node as usize].ntest, NodeTest::Name(s) if s == name))
    }

    /// Brings a filter up to date with a stream position its feeder kept
    /// for it: `skipped` events went by undelivered since the last one
    /// this filter processed — tags no node test mentions, text while
    /// nothing was buffering (a bank's dispatch), or whatever lay past
    /// the filter's [`Horizoned::horizon`] (a tokenizer passing it
    /// over) — leaving the stream at `level` / `ordinal` (the next start
    /// tag's) after climbing as deep as `deepest`. Such a stretch moves
    /// nothing but the position, so the frontier rows, offset-stack
    /// entries and buffer are those of every snapshot a filter fed each
    /// event would have taken along it; `instant_bits` is monotone in
    /// the level, so observing the one snapshot at `deepest` leaves
    /// [`SpaceStats`] exactly as that filter's.
    fn sync(&mut self, level: usize, ordinal: u64, skipped: u64, deepest: usize) {
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

    /// See [`Horizoned::horizon`].
    fn horizon(&self, q: &CompiledQuery) -> Option<(Horizon, u64)> {
        if self.buffer_refs > 0 {
            return None;
        }
        let mut name_lengths = 0u64;
        for rec in self.fireable_descendants(q) {
            // A wildcard descendant row fires on every tag.
            let NodeTest::Name(name) = &q.nodes[rec.node as usize].ntest else {
                return None;
            };
            name_lengths |= 1 << name.len().min(63);
        }
        let frames = self.reporter.as_ref().map_or(0, Reporter::deepest_open);
        let level = self
            .frontier
            .iter()
            .map(|r| r.level)
            .fold(frames, usize::max);
        Some((Horizon { level }, name_lengths))
    }

    /// The descendant-axis rows that can still fire: unmatched, or on
    /// the output path in reporting mode.
    fn fireable_descendants<'a>(
        &'a self,
        q: &'a CompiledQuery,
    ) -> impl Iterator<Item = &'a FrontierRecord> + 'a {
        let reporting = self.reporter.is_some();
        self.frontier.iter().filter(move |rec| {
            let node = rec.node as usize;
            let fires = !rec.matched || (reporting && q.path_index[node].is_some());
            fires && q.nodes[node].axis == Axis::Descendant
        })
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
        // One in-order pass: select the records this element is a
        // candidate match for (Fig. 20 lines 1–4) and process each in
        // place — leaves begin buffering; internal nodes spawn child
        // records, staged in reused scratch and appended after the pass,
        // and a child-axis one leaves the table (lines 10–11).
        // In reporting mode, records on the output path stay candidates
        // even after a real match was found elsewhere: full evaluation
        // must examine *every* candidate, not stop at the first.
        debug_assert!(self.scratch_insert.is_empty());
        retain_in_order(&mut self.frontier, |rec| {
            let node = rec.node;
            // Cheapest rejections first: the node test (one integer
            // compare) and the level check throw out almost every
            // (record, event) pair before any further loads.
            let n = &q.nodes[node as usize];
            if !n.passes(name) {
                return true;
            }
            let level_ok = match n.axis {
                Axis::Descendant => lvl >= rec.level,
                Axis::Attribute => false, // resolve from start tags below
                _ => lvl == rec.level,
            };
            if !level_ok {
                return true;
            }
            if rec.matched && !(reporting && q.path_index[node as usize].is_some()) {
                return true;
            }
            if let (Some(rep), Some(idx)) = (&mut self.reporter, q.path_index[node as usize]) {
                let out_leaf_unrestricted =
                    n.is_leaf && n.leaf_predicate.is_none() && idx as usize == q.out_path.len();
                rep.select(lvl, ordinal, span.start, idx, out_leaf_unrestricted);
            }
            if n.is_leaf {
                if n.leaf_predicate.is_some() {
                    self.buffer_refs += 1;
                    rec.open_candidacy(self.buffer.len());
                } else {
                    // TRUTH(u) = S: any candidate is a real match; decide
                    // now and skip buffering.
                    rec.matched = true;
                    self.match_progress += 1;
                }
                return true;
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
            if n.axis != Axis::Child {
                return true;
            }
            if reporting {
                self.removed_matched.push((node, lvl, rec.matched));
            }
            false
        });
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

    fn end_element(
        &mut self,
        q: &CompiledQuery,
        name: Sym,
        span: Span,
        query: usize,
        sink: &mut dyn MatchSink,
    ) {
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

        // One in-order pass: close the leaf candidacies ending here against
        // TRUTH(u) (Fig. 21 lines 2–10), and move every record above the
        // closing level into its parent's group, conjoining the matched
        // flags (lines 11–29). The two sets are disjoint by level.
        let reporting = self.reporter.is_some();
        let out_node = q.out_path.last().copied();
        let mut out_leaf_value: Option<bool> = None;
        debug_assert!(self.scratch_groups.is_empty());
        retain_in_order(&mut self.frontier, |rec| {
            let node = rec.node;
            if rec.level > lvl {
                let p = q.parents[node as usize];
                // The successor child (the output-path continuation) is
                // no *predicate* conjunct.
                let successor =
                    q.path_index[p as usize].and_then(|idx| q.out_path.get(idx as usize).copied());
                let pred = rec.matched || Some(node) == successor;
                match self.scratch_groups.iter_mut().find(|g| g.0 == p) {
                    Some(g) => {
                        g.1 &= rec.matched;
                        g.2 &= pred;
                    }
                    None => self.scratch_groups.push((p, rec.matched, pred)),
                }
                return false;
            }
            let n = &q.nodes[node as usize];
            if !n.passes(name) || !n.is_leaf || n.leaf_predicate.is_none() {
                return true;
            }
            // At or above the closing level, a descendant-axis leaf's
            // candidacy may close at any depth; any other only at its own.
            if n.axis != Axis::Descendant && rec.level != lvl {
                return true;
            }
            let Some(start) = rec.close_candidacy() else {
                return true;
            };
            let value = &self.buffer[start..];
            self.stats.observe_text_width(value.chars().count());
            let needs_value = !rec.matched || (reporting && Some(node) == out_node);
            if needs_value {
                let ok = Self::value_in_truth(n, value);
                rec.matched |= ok;
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
            true
        });

        // Only now are the parents updated (line 28, with `matched ∨= m`):
        // every record this element spawned has left, so no update can
        // leak into one before it is folded.
        let own = self
            .removed_matched
            .iter()
            .rposition(|e| e.1 < lvl)
            .map_or(0, |i| i + 1);
        for &(p, all_matched, _) in &self.scratch_groups {
            if all_matched {
                self.match_progress += 1;
            }
            if q.nodes[p as usize].axis == Axis::Descendant {
                // The record(s) for p are still in the table; accumulate
                // into every live candidacy (under parent recursion the
                // same element is a candidate for each of them).
                for rec in self.frontier.iter_mut().filter(|r| r.node == p) {
                    rec.matched |= all_matched;
                }
            } else {
                // Reinsert the record that left at this element's start
                // tag. In reporting mode a matched record may have been
                // re-spawned for a later candidate; restore its flag.
                let was_matched = self.removed_matched[own..]
                    .iter()
                    .rev()
                    .find(|&&(n, l, _)| n == p && l == lvl)
                    .is_some_and(|e| e.2);
                self.frontier
                    .push(FrontierRecord::new(p, was_matched || all_matched, lvl));
            }
        }
        self.removed_matched.truncate(own);
        if let Some(rep) = self.reporter.as_mut().filter(|r| r.is_open_at(lvl)) {
            rep.close_element(
                q,
                &self.scratch_groups,
                out_leaf_value,
                span.end,
                query,
                sink,
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
    fn a_fold_updates_parents_after_every_child_left() {
        // The inner <a>'s <b/> matches the `.//a[b]` candidacy the outer
        // <a> opened; that match must not reach the `.//a[b]` record the
        // inner <a> spawned for itself, which its own close removes.
        agree(
            "//z/a[d and .//a[b]]",
            "<z><a><z><a><d/><b/></a></z></a></z>",
        );
    }

    #[test]
    fn removed_matched_holds_only_open_elements() {
        // Each <x> lies below three `//x` records, so its <a> is a
        // candidate three times over and its close reinserts one record.
        let q = parse_query("//y//x/a[c]").unwrap();
        let xml = format!("<y><y><y>{}</y></y></y>", "<x><a><c/></a></x>".repeat(1000));
        let mut f = StreamFilter::new_reporting(&q).unwrap();
        for e in &fx_xml::parse(&xml).unwrap() {
            f.process(e);
            let level = f.st.current_level;
            assert!(
                f.st.removed_matched.iter().all(|&(_, l, _)| l < level),
                "{} entries at level {level}",
                f.st.removed_matched.len()
            );
        }
        assert_eq!(f.result(), Some(true));
        assert!(f.st.removed_matched.is_empty());
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
        let mut ordinals = Vec::new();
        for (event, span) in &spanned {
            f.process_to(event, *span, 0, &mut |m: Match| ordinals.push(m.ordinal));
        }
        assert_eq!(f.result(), Some(true));
        assert_eq!(ordinals, vec![1]);
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
