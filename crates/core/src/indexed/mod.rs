//! The shared-prefix **indexed multi-query bank**: YFilter-style work
//! sharing for the selective-dissemination workload (\[1\] in the paper).
//!
//! [`crate::MultiFilter`] keeps an independent [`crate::StreamFilter`] per
//! query and shares nothing between them: an event costs one filter's
//! work for every query that names its element, however alike the
//! queries are. [`IndexedBank`] instead canonicalizes each query's succession chain
//! (`fx_xpath::canonical::canonical_steps`), inserts the chains into a prefix
//! **trie**, and walks the trie **once** per event: a trie node shared by
//! a thousand queries owns a single frontier-table segment — one record
//! per open occurrence of its path — no matter how many queries hang
//! below it. Per-query state exists only at *divergence points*: when a
//! document element completes a query group's shared prefix, the bank
//! spawns a **residual instance** (a plain [`crate::StreamFilter`] over the
//! query's remainder, re-rooted at that element) that sees only the
//! events inside the activating element's subtree and retires at its
//! close. Queries whose whole chain is predicate-free live entirely in
//! the trie and need no instance at all.
//!
//! Open records and dormant activations are chained by the name that
//! can fire them, so per-event cost is `O(open records whose node test
//! is this tag's name or a wildcard + dormant activations this name can
//! wake + live residual instances whose residual names it)` — not
//! `O(bank size)`, and not even
//! `O(shared frontier)`: queries whose prefix the
//! document never exhibits cost **zero** per event, and equivalent
//! queries (equal `fx_xpath::canonical::canonical_key`, e.g. commutative
//! predicate reorderings) are evaluated once and fanned out. On
//! overlapping query families this makes per-event work grow sublinearly
//! with bank size; on banks with no shared structure (every prefix
//! empty) it degrades gracefully to the naive bank's behaviour, with the
//! same decided-filter short-circuiting.
//!
//! ## Shared residuals
//!
//! Residual remainders are compiled **once per canonical residual form
//! per bank**, not once per group: every distinct
//! `fx_xpath::canonical::canonical_residual_key` owns a single
//! [`CompiledResidual`] in the bank's pool, shared across *all* trie
//! groups whose remainders render to that form — even groups diverging
//! from entirely different prefixes (`/asia/item[price > 5]` and
//! `/europe/item[5 < price]` share one compiled remainder). Activation
//! at a divergence point is therefore allocation-free with respect to
//! compiled state: spawning a residual instance bumps an [`Arc`]
//! refcount and initializes empty per-instance state — no recompilation,
//! no deep clone, no per-step allocation
//! ([`IndexedBank::residual_builds`] counts exactly one build per
//! canonical form, and stays flat however many instances spawn).
//!
//! ## Space attribution
//!
//! Shared state is attributed back to queries so the indexed bank's
//! space statistics are comparable with [`crate::MultiFilter`]'s:
//! [`IndexedBank::peak_memory_bits`] splits each group's peak residual-
//! instance bits evenly across the group's members and the shared trie's
//! peak frontier-segment bits evenly across the queries whose prefixes
//! live in the trie (integer remainders go to the lowest-ranked
//! sharers), so the per-query figures sum **exactly** to
//! [`IndexedBank::total_max_bits`] — the bank-level total of
//! `peak shared-trie bits + Σ per-group instance peaks`, measured in the
//! same Theorem 8.8 frontier-row units as [`crate::SpaceStats`].
//!
//! ## Query churn
//!
//! The bank is **mutable**: [`IndexedBank::subscribe`] registers one
//! more standing query in O(|query|) — the canonical chain extends the
//! live trie in place, no existing group or slot is renumbered, and the
//! remainder reuses the shared residual pool whenever its canonical form
//! was already compiled. [`IndexedBank::unsubscribe`] tombstones the
//! slot; a group left without members is tombstoned with it (activation
//! sites skip it for the cost of one emptiness check) and its pooled
//! filters are released so the residual pool's `Arc` refcounts drop
//! naturally. Tombstones are folded away by [`IndexedBank::compact`] —
//! run automatically once there are at least 16 of them and they fill
//! more than half the slot table — which rebuilds the trie and slot
//! table from the surviving subscriptions while *moving* the existing
//! compiled residuals into the new pool: churn never recompiles the
//! bank, and [`IndexedBank::residual_builds`] moves only when a
//! genuinely new canonical form first appears.
//!
//! ## Index and run
//!
//! A bank is two halves with one writer each. The **index** is *what
//! the subscriptions are* — trie, groups, residual pool and wake-up
//! triggers, the canonical-key maps, the slot tables with the `Query`
//! each slot retains for compaction — and only churn writes it:
//! [`IndexedBank::subscribe`], [`IndexedBank::unsubscribe`] and
//! [`IndexedBank::compact`].
//! The **run** is *where the document is* — frontier records and dormant
//! activations with their chains, live residual instances and the
//! filter pool, per-group verdicts and peaks, the counters: Theorem
//! 8.8's work tape, with the index as the read-only input the theorem
//! does not charge for. [`crate::StreamFilter`] has the same border
//! (`Arc<CompiledQuery>` beside its state), one level down.
//!
//! The bank holds its index behind an [`Arc`], so a [`Clone`] — an
//! engine session, a `run_sharded` worker — copies the run and bumps one
//! refcount: a second run over the same queries costs the same handful
//! of allocations at a thousand subscriptions as at ten. A clone carries
//! its source's in-flight document. Churn goes through
//! [`Arc::make_mut`]: free while the bank is the index's only holder
//! (every `fx-server` worker's is), and one copy of the index — copy on
//! write — the first time a bank that shares it churns, after which it
//! owns what it writes. Clones are therefore independent exactly as if
//! each had been deep-copied: neither ever sees the other's churn.
//! Compaction builds the folded index *beside* the old one and swaps it
//! in, so compacting a shared index copies nothing either.
//!
//! The event handlers are methods of the run that receive `&Index`,
//! borrowed once per event (once per batch on the batched path): no
//! handler can write the index, whatever it is changed to do. The run's
//! per-group, per-residual and per-name tables are sized by `Run::fit`
//! in the same churn call that grew the index — the handlers index them
//! unchecked.
//!
//! One module per concern along that border: `index` (the index and the
//! churn calls, its only writers), `run` (the run and its handlers,
//! dormancy included), `chains` and `attribution`. A bank takes interned
//! events only ([`Evaluator::event`]): a holder of owned ones interns
//! each against [`Evaluator::symbols`], as a session does.
//!
//! Correctness rests on the decomposition `BOOLEVAL(Q, D) = ∨ₓ
//! BOOLEVAL(Q', subtree(x))` (and the analogous union for `FULLEVAL`)
//! over the candidates `x` of the predicate-free prefix — predicates
//! cannot constrain prefix nodes, so matches distribute over the
//! divergence point — and is proven against [`crate::MultiFilter`] by
//! `tests/indexed_differential.rs` (verdicts *and* routed match streams,
//! ordinals, spans and bank indices included); churned banks are proven
//! equivalent to from-scratch banks over the surviving queries by
//! `tests/churn_differential.rs`.

mod attribution;
mod chains;
mod index;
mod run;

use crate::evaluator::sealed::Horizoned;
use crate::evaluator::Evaluator;
use crate::filter::{CompiledQuery, UnsupportedQuery};
use crate::reporter::MatchSink;
use fx_xml::{EventBatch, Span, SymEvent, Symbols};
use fx_xpath::Query;
use index::Index;
use run::Run;
use std::sync::Arc;

/// A compiled residual remainder, built **once** per canonical residual
/// form per bank and shared — behind an [`Arc`] — by every group and
/// every activation that needs it. Spawning an instance from one is a
/// refcount bump; the compiled automaton is never cloned or rebuilt.
#[derive(Debug, Clone)]
pub struct CompiledResidual {
    compiled: Arc<CompiledQuery>,
    key: String,
}

impl CompiledResidual {
    fn build(compiled: CompiledQuery, key: String) -> CompiledResidual {
        CompiledResidual {
            compiled: Arc::new(compiled),
            key,
        }
    }

    /// The shared compiled form.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// The `fx_xpath::canonical::canonical_residual_key` this pool entry is
    /// deduplicated under.
    pub fn canonical_key(&self) -> &str {
        &self.key
    }
}

/// A stable handle to one subscribed query, returned by
/// [`IndexedBank::subscribe`]. Ids are unique for the bank's whole
/// lifetime: they survive [`IndexedBank::compact`] (which renumbers
/// *slots*, not subscriptions) and are never reused after
/// [`IndexedBank::unsubscribe`]. Translate to the current bank slot —
/// the `query` field of routed [`Match`](crate::Match)es — with
/// [`IndexedBank::slot_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    /// The raw id (monotone in registration order).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value ([`SubscriptionId::as_u64`]).
    ///
    /// Ids are assigned by [`IndexedBank::subscribe`] as the
    /// deterministic sequence 0, 1, 2, … (incremented only on success),
    /// so a coordinator that mirrors the subscribe stream — a server
    /// that decides with [`CompiledQuery::check`] and broadcasts one
    /// churn command to N workers — can predict the id every replica
    /// will assign and hand it to callers without waiting for a worker
    /// round-trip. Constructing an id the bank never issued is safe:
    /// every lookup treats unknown ids as already-withdrawn.
    pub fn from_raw(raw: u64) -> SubscriptionId {
        SubscriptionId(raw)
    }
}

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// An indexed bank of streaming filters sharing one event feed *and*
/// the evaluation of common query prefixes.
///
/// The surface mirrors [`crate::MultiFilter`]: feed interned events
/// through [`Evaluator::event`], read per-query verdicts from
/// [`IndexedBank::results`] or [`IndexedBank::matching`], and (in
/// reporting mode) receive each confirmed [`Match`](crate::Match)
/// stamped with the bank index of the query that selected it. Verdicts
/// and routed matches are event-for-event equivalent to the naive bank;
/// only the work sharing differs.
///
/// [`Clone`] copies the document state and *shares* the subscriptions
/// (one refcount bump, whatever the bank's size); the two banks stay
/// independent — the first to churn takes its own copy of the index.
#[derive(Debug, Clone)]
pub struct IndexedBank {
    index: Arc<Index>,
    run: Run,
}

/// A bank-level breakdown of the indexed path's logical memory and
/// activation behaviour, in the Theorem 8.8 units of
/// [`crate::SpaceStats`] — read it from [`IndexedBank::space_stats`] (or
/// `Session::index_stats` at the engine layer) after a document to
/// compare indexed-vs-naive space, not just time. The peaks are those of
/// the current document (they restart at `StartDocument`); `activations`
/// and `events` count since the bank was built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSpaceStats {
    /// Peak bits of the shared trie's frontier segment (rows shared by
    /// every query whose prefix runs through them); zero once no
    /// subscription is live to be charged with them.
    pub shared_trie_bits: u64,
    /// Sum of per-group peak residual-instance bits, where a group's
    /// peak counts its simultaneously-live instances *together* (each
    /// group counted once, however many queries it fans out to).
    pub residual_bits: u64,
    /// `shared_trie_bits + residual_bits` — equals the sum of the
    /// per-query attribution [`IndexedBank::peak_memory_bits`] exactly.
    pub total_bits: u64,
    /// Peak number of shared trie frontier records.
    pub peak_records: usize,
    /// Peak number of simultaneously live residual instances.
    pub peak_instances: usize,
    /// Total residual instances spawned (each an `Arc` bump, never a
    /// compile).
    pub activations: u64,
    /// Total events processed.
    pub events: u64,
    /// Distinct canonical query groups.
    pub groups: usize,
    /// Distinct canonical residual forms (= compiled-residual builds).
    pub residual_pool: usize,
}

impl IndexSpaceStats {
    /// Residual instances spawned per event — the activation rate the
    /// index keeps low by sharing prefixes (non-activated prefixes spawn
    /// nothing).
    pub fn activation_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.activations as f64 / self.events as f64
        }
    }
}

impl IndexedBank {
    /// Compiles and indexes a bank of filtering queries; fails on the
    /// first unsupported one (with its bank index), exactly like
    /// [`crate::MultiFilter::new`].
    pub fn new(queries: &[Query]) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, false, true, Arc::new(Symbols::new()))
    }

    /// [`IndexedBank::new`] interning into a caller-supplied symbol
    /// table — the engine passes its own so parser-side interned events
    /// dispatch straight into the trie.
    pub fn new_with_symbols(
        queries: &[Query],
        symbols: Arc<Symbols>,
    ) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, false, true, symbols)
    }

    /// Compiles and indexes a *selection* bank: every query runs in
    /// reporting mode and [`Evaluator::event`] routes each
    /// confirmed match to the sink with its query's bank index. Fails
    /// with the index of the first query whose output node cannot be
    /// reported.
    pub fn new_reporting(queries: &[Query]) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, true, true, Arc::new(Symbols::new()))
    }

    /// [`IndexedBank::new_reporting`] interning into a caller-supplied
    /// symbol table.
    pub fn new_reporting_with_symbols(
        queries: &[Query],
        symbols: Arc<Symbols>,
    ) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, true, true, symbols)
    }

    /// A filtering bank that skips the shared-residual pool: every
    /// residual-bearing group compiles a private, freshly-built (non-Arc
    /// -shared) remainder. This is the differential-testing reference
    /// that proves pooling changes nothing observable (see the
    /// `indexed_differential` proptests); production code wants
    /// [`IndexedBank::new`].
    pub fn new_unpooled(queries: &[Query]) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, false, false, Arc::new(Symbols::new()))
    }

    /// An empty bank, then one [`IndexedBank::subscribe`] per query:
    /// construction-time queries are subscriptions too — ids are
    /// assigned in registration order.
    fn build(
        queries: &[Query],
        reporting: bool,
        pooled: bool,
        symbols: Arc<Symbols>,
    ) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        let index = Index::empty(reporting, pooled, symbols);
        let mut bank = IndexedBank {
            run: Run::new(&index),
            index: Arc::new(index),
        };
        for (i, q) in queries.iter().enumerate() {
            bank.subscribe(q).map_err(|e| (i, e))?;
        }
        Ok(bank)
    }

    /// The stable id of the subscription currently occupying `slot`
    /// (`None` for tombstoned or out-of-range slots) — the inverse of
    /// [`IndexedBank::slot_of`], for translating a routed
    /// [`Match`](crate::Match)'s bank index back to its subscriber.
    pub fn subscription_of(&self, slot: usize) -> Option<SubscriptionId> {
        let index = &*self.index;
        (index.slot_alive.get(slot) == Some(&true)).then(|| SubscriptionId(index.slot_sub[slot]))
    }

    /// The current slot (bank index) of a subscription, `None` once
    /// unsubscribed. Slots are stable except across
    /// [`IndexedBank::compact`].
    pub fn slot_of(&self, id: SubscriptionId) -> Option<usize> {
        self.index.subs.get(&id.0).copied()
    }

    /// Number of live (non-tombstoned) subscriptions.
    pub fn live_subscriptions(&self) -> usize {
        self.index.subs.len()
    }

    /// Number of tombstoned slots awaiting compaction.
    pub fn tombstoned_slots(&self) -> usize {
        self.index.dead_slots
    }

    /// Number of compaction passes performed so far.
    pub fn compactions(&self) -> u64 {
        self.index.compactions
    }

    /// Number of registered slots — live subscriptions plus tombstones
    /// awaiting compaction ([`IndexedBank::live_subscriptions`] counts
    /// the live ones alone). Per-slot vectors such as
    /// [`IndexedBank::results`] have this length.
    pub fn len(&self) -> usize {
        self.index.query_group.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.index.query_group.is_empty()
    }

    /// True when this bank reports positions (built via
    /// [`IndexedBank::new_reporting`]).
    pub fn is_reporting(&self) -> bool {
        self.index.reporting
    }

    /// Number of [`CompiledResidual`] builds this bank performed:
    /// exactly one per canonical residual form, at the form's first
    /// subscription. Processing any number of documents, spawning any
    /// number of residual instances, and any amount of churn over
    /// already-known forms — unsubscribes, compactions, re-subscribes
    /// — leave this unchanged: that is the no-recompilation guarantee
    /// the mutable bank is built around.
    pub fn residual_builds(&self) -> u64 {
        self.index.built_residuals
    }

    /// Total shared trie records start tags have visited so far
    /// (cumulative, like every counter here): a tag walks the chain of
    /// its own name plus the wildcard chain, so this deterministic work
    /// count stays flat as the bank grows families a document never names.
    pub fn trie_records_visited(&self) -> u64 {
        self.run.records_visited
    }

    /// Total dormant wake-up registrations start tags have checked so
    /// far: the dormant-side companion of
    /// [`IndexedBank::trie_records_visited`].
    pub fn dormant_entries_checked(&self) -> u64 {
        self.run.dormant_checked
    }

    /// Total events delivered to residual instances so far, wake events
    /// included (cumulative, like [`IndexedBank::trie_records_visited`]):
    /// an instance is handed only a tag its residual names and text
    /// while it buffers, so this deterministic work count follows the
    /// events that can move an instance, not live instances × events.
    pub fn instance_feeds(&self) -> u64 {
        self.run.instance_feeds
    }

    /// Number of shared trie nodes (excluding the virtual root).
    pub fn shared_nodes(&self) -> usize {
        self.index.trie.len() - 1
    }

    /// [`Evaluator::event`] over a whole [`EventBatch`]: the
    /// batch-granular hot path. One bank call walks the entire run with
    /// the index borrow and the replay attribute scratch hoisted out of
    /// the per-event loop; event order, match routing, verdicts, and
    /// space accounting are exactly those of the per-event feed.
    pub fn process_batch_to(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        let (index, run) = (&*self.index, &mut self.run);
        let mut scratch = std::mem::take(&mut run.attr_scratch);
        batch.replay(&mut scratch, |ev, span| run.process(index, ev, span, sink));
        run.attr_scratch = scratch;
    }

    /// Per-query verdicts (available after `endDocument`, or earlier for
    /// groups that short-circuited to an accept), indexed by slot.
    /// Entries for tombstoned slots are unspecified — translate live
    /// subscriptions through [`IndexedBank::slot_of`] instead of
    /// iterating blindly after churn.
    pub fn results(&self) -> Vec<Option<bool>> {
        self.verdicts().collect()
    }

    /// [`IndexedBank::results`] as an iterator over the slots, without
    /// allocating.
    pub fn verdicts(&self) -> impl Iterator<Item = Option<bool>> + '_ {
        let undecided = self.run.finished.then_some(false);
        self.index.query_group.iter().map(move |&g| {
            if self.run.doc[g as usize].accepted {
                Some(true)
            } else {
                undecided
            }
        })
    }

    /// The slots of the live queries the current document has accepted
    /// so far — its accepted groups' members, in no particular order —
    /// found in O(groups the document touched), not O(slots): with
    /// [`IndexedBank::is_finished`], a document's whole readout (every
    /// other live slot is `false` once it is finished).
    pub fn accepted_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let (index, doc) = (&*self.index, &self.run.doc);
        (self.run.touched.iter())
            .filter(|&&g| doc[g as usize].accepted)
            .flat_map(|&g| index.groups[g as usize].members.iter().copied())
    }

    /// Whether the current document has reached `EndDocument`.
    pub fn is_finished(&self) -> bool {
        self.run.finished
    }

    /// Iterates the slots of the live queries the last document
    /// matched, without allocating (tombstoned slots never report).
    pub fn matching(&self) -> impl Iterator<Item = usize> + '_ {
        let (index, doc) = (&*self.index, &self.run.doc);
        (index.query_group.iter().enumerate()).filter_map(move |(i, &g)| {
            (index.slot_alive[i] && doc[g as usize].accepted).then_some(i)
        })
    }

    /// Indices of the queries the last document matched, collected.
    pub fn matching_queries(&self) -> Vec<usize> {
        self.matching().collect()
    }
}

/// An interned event (syms from the bank's table,
/// [`Evaluator::symbols`]) goes with its source span through the shared
/// trie and the live residual instances, routing any matches it
/// confirmed to `sink` — each stamped with the bank index of the query
/// that selected it. Filtering-mode banks never call the sink.
impl Evaluator for IndexedBank {
    fn symbols(&self) -> &Arc<Symbols> {
        &self.index.symbols
    }

    fn event(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        self.run.process(&self.index, event, span, sink);
    }
}

impl Horizoned for IndexedBank {}

#[cfg(test)]
pub(crate) mod tests;
