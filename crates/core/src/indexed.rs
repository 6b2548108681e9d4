//! The shared-prefix **indexed multi-query bank**: YFilter-style work
//! sharing for the selective-dissemination workload (\[1\] in the paper).
//!
//! [`crate::MultiFilter`] keeps an independent [`StreamFilter`] per
//! query and shares nothing between them: an event costs one filter's
//! work for every query that names its element, however alike the
//! queries are. [`IndexedBank`] instead canonicalizes each query's succession chain
//! (`fx_xpath::canonical::canonical_steps`), inserts the chains into a prefix
//! **trie**, and walks the trie **once** per event: a trie node shared by
//! a thousand queries owns a single frontier-table segment — one record
//! per open occurrence of its path — no matter how many queries hang
//! below it. Per-query state exists only at *divergence points*: when a
//! document element completes a query group's shared prefix, the bank
//! spawns a **residual instance** (a plain [`StreamFilter`] over the
//! query's remainder, re-rooted at that element) that sees only the
//! events inside the activating element's subtree and retires at its
//! close. Queries whose whole chain is predicate-free live entirely in
//! the trie and need no instance at all.
//!
//! Open records and dormant activations are chained by the name that
//! can fire them, so per-event cost is `O(open records whose node test
//! is this tag's name or a wildcard + dormant activations this name can
//! wake + live residual instances)` — not `O(bank size)`, and not even
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
//! does not charge for. [`StreamFilter`] has the same border
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
//! Correctness rests on the decomposition `BOOLEVAL(Q, D) = ∨ₓ
//! BOOLEVAL(Q', subtree(x))` (and the analogous union for `FULLEVAL`)
//! over the candidates `x` of the predicate-free prefix — predicates
//! cannot constrain prefix nodes, so matches distribute over the
//! divergence point — and is proven against [`crate::MultiFilter`] by
//! `tests/indexed_differential.rs` (verdicts *and* routed match streams,
//! ordinals, spans and bank indices included); churned banks are proven
//! equivalent to from-scratch banks over the surviving queries by
//! `tests/churn_differential.rs`.

use crate::filter::{CompiledQuery, StreamFilter, UnsupportedQuery};
use crate::reporter::{Match, MatchSink};
use crate::space::bits_for;
use fx_xml::{AttrBuf, Event, EventBatch, Span, Sym, SymCache, SymEvent, Symbols};
use fx_xpath::canonical::CanonicalForm;
use fx_xpath::{Axis, NodeTest, Query, QueryNodeId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The record/node code standing for a wildcard node test. Interned
/// sym ids never reach it (the table asserts well below `u32::MAX - 1`)
/// and [`Sym::UNKNOWN`] is `u32::MAX`, so every name — known, unknown
/// or wildcard — is one `u32` chain key with no `Option` unwrapping.
const WILDCARD_CODE: u32 = u32::MAX - 1;

/// The dense dispatch code of a node test: its interned sym id, or
/// [`WILDCARD_CODE`].
fn sym_code(sym: Option<Sym>) -> u32 {
    match sym {
        None => WILDCARD_CODE,
        Some(s) => s.index() as u32,
    }
}

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

/// One node of the shared-prefix trie: a canonical (axis, node-test)
/// step. All queries whose canonical chains run through this step share
/// this node — and thus share the per-event work of tracking it.
#[derive(Debug, Clone)]
struct TrieNode {
    axis: Axis,
    ntest: NodeTest,
    /// The node test's dense dispatch code ([`sym_code`]): the open
    /// frontier records inline it and are chained under it, so a start
    /// tag's walk touches its own name's records only — no trie
    /// chasing, no string hashing or comparison.
    code: u32,
    children: Vec<u32>,
    /// Groups whose entire chain ends here: a predicate-free linear
    /// query. An activation of this node *is* a match; no per-query
    /// state is ever needed.
    terminal: Vec<u32>,
    /// Groups that diverge here: activation spawns one residual
    /// instance per group, rooted at the activating element.
    residual: Vec<u32>,
}

/// A stable handle to one subscribed query, returned by
/// [`IndexedBank::subscribe`]. Ids are unique for the bank's whole
/// lifetime: they survive [`IndexedBank::compact`] (which renumbers
/// *slots*, not subscriptions) and are never reused after
/// [`IndexedBank::unsubscribe`]. Translate to the current bank slot —
/// the `query` field of routed [`Match`]es — with
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

/// [`IndexedBank::unsubscribe`] folds tombstoned slots away once there
/// are at least this many and they fill more than half the slot table.
/// Compaction costs one pass over the surviving subscriptions (no
/// recompilation), so waiting for tombstones to outnumber the live slots
/// keeps it amortized O(1) slot moves per unsubscribe.
const MIN_TOMBSTONES: usize = 16;

/// A set of bank queries with identical canonical form, evaluated once.
#[derive(Debug, Clone)]
struct Group {
    /// Bank indices (registration order) sharing this canonical form.
    /// Empty for a **tombstoned** group (every member unsubscribed):
    /// the group's trie linkage stays in place until compaction, but
    /// every activation site skips it.
    members: Vec<usize>,
    /// Index into the bank's [`CompiledResidual`] pool of the compiled
    /// remainder below the shared prefix (`None` for terminal groups).
    /// Groups with canonically-equal remainders share one pool entry,
    /// even across different trie paths.
    residual: Option<u32>,
    /// Whether the shared prefix contains a descendant-axis step, in
    /// which case nested activations can confirm the same output element
    /// twice and reported ordinals must be deduplicated per document.
    needs_dedup: bool,
    /// Whether the sharable prefix is empty (a `root_groups` member):
    /// such queries hold no trie state, so the shared-trie bits are not
    /// attributed to them.
    document_rooted: bool,
}

/// A live residual evaluation: one query group below one activation.
#[derive(Debug, Clone)]
struct Instance {
    group: u32,
    filter: StreamFilter,
    /// Instance-local element ordinals plus this offset are global
    /// document ordinals (the subtree's ordinals are contiguous).
    ordinal_offset: u64,
    /// Document level of the activating element; `-1` for
    /// document-rooted instances (groups with an empty sharable prefix).
    root_level: i64,
    /// Last observed [`StreamFilter::match_progress`], so the (filter
    /// mode) early-decision check runs only on transitions.
    progress: u64,
    /// This instance's bits as last folded into its group's live total
    /// (the filter's monotone `max_bits`); deltas keep the total exact
    /// in O(1) per touched instance.
    noted_bits: u64,
    /// Likewise for the reporter's pending-candidate count (the
    /// filter's monotone `peak_pending_positions`).
    noted_pending: usize,
}

/// "No entry": an empty chain, and the `prev` of a chain's oldest member.
const NIL: u32 = u32::MAX;

/// Heads of the per-dispatch-code chains threaded through a stack
/// (`records` or `wake_links`): one `u32` per symbol of the bank's
/// table, sized when churn may have *added* a code ([`Run::fit`]), never
/// per document. Slot 0 is the wildcard's, slot 1 [`Sym::UNKNOWN`]'s (never
/// chained, so always [`NIL`]) and slot `i + 2` symbol `i`'s — the
/// codes' own order, wrapped. The chains are intrusive — each stack
/// entry names the previous (older) entry with its code — and the
/// stacks shrink only from the tail, so a chain's head is its most
/// recent member and a push or pop is one head swap.
#[derive(Debug, Clone, Default)]
struct Chains(Vec<u32>);

impl Chains {
    fn slot(code: u32) -> usize {
        code.wrapping_add(2) as usize
    }

    /// Makes room for `heads` heads.
    fn fit(&mut self, heads: usize) {
        if self.0.len() < heads {
            self.0.resize(heads, NIL);
        }
    }

    /// The most recent entry chained under `code` — [`NIL`] for a code
    /// the bank never registered (say, a name someone else interned
    /// into the shared table).
    #[inline]
    fn head(&self, code: u32) -> u32 {
        self.0.get(Chains::slot(code)).copied().unwrap_or(NIL)
    }

    /// Chains the stack entry about to be pushed at index `at` under
    /// `code`; returns the entry's `prev`.
    #[inline]
    fn push(&mut self, code: u32, at: usize) -> u32 {
        std::mem::replace(&mut self.0[Chains::slot(code)], at as u32)
    }

    /// Unchains the stack entry just popped from index `at`.
    #[inline]
    fn pop(&mut self, code: u32, at: usize, prev: u32) {
        let head = &mut self.0[Chains::slot(code)];
        debug_assert_eq!(*head as usize, at, "chains pop in stack order");
        *head = prev;
    }
}

/// One open occurrence of a trie path in the shared frontier segment.
/// The node test's dispatch code and axis are denormalized out of the
/// trie and the record is threaded onto its code's chain ([`Chains`]):
/// a start tag walks the chain of its own name and the wildcard chain —
/// integer compares over 20-byte records, no trie chasing — and never
/// sees a record its name cannot fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrieRec {
    /// The trie node this record tracks.
    node: u32,
    /// Insertion level (exact-match level for child-axis nodes, minimum
    /// level for descendant-axis nodes).
    level: u32,
    /// The node's [`sym_code`].
    code: u32,
    /// The previous (older) record with the same `code`, or [`NIL`].
    prev: u32,
    /// Whether the node's axis is `Descendant`.
    descendant: bool,
}

/// A *dormant* activation: a divergence point was reached for `group`
/// at `root_level`, but no residual instance exists yet. Until some
/// event inside the activation subtree actually selects one of the
/// residual's root records (see [`ResidualTriggers`]), an instance
/// would provably hold nothing beyond its initial frontier records —
/// so the bank holds this entry instead of a live filter, chained (one
/// [`WakeLink`] per trigger spec) under each dispatch code that can
/// wake it: a start tag checks only the entries its name or a wildcard
/// spec can fire. Activations whose subtree never exhibits a matching
/// child retire without the instance ever existing.
#[derive(Debug, Clone, Copy)]
struct Dormant {
    group: u32,
    /// Document level of the activating element; `-1` for
    /// document-rooted groups.
    root_level: i64,
    /// Index of this entry's first [`WakeLink`] (its links run to the
    /// next entry's, or the end of the link stack).
    links: u32,
    /// Cleared — a tombstone until the entry pops — once the entry
    /// fired or its group's state was dropped.
    live: bool,
}

/// One registration of a [`Dormant`] entry under a dispatch code that
/// can wake it, chained per code like [`TrieRec`].
#[derive(Debug, Clone, Copy)]
struct WakeLink {
    /// Index of the entry in `dormant`.
    entry: u32,
    code: u32,
    /// The previous (older) link with the same `code`, or [`NIL`].
    prev: u32,
    /// Whether the spec fires at any depth (else only on children of
    /// the activating element).
    descendant: bool,
}

/// One canonical group's per-document state: default until the group
/// is `touched`, and reset at `StartDocument` only if it was.
#[derive(Debug, Clone, Copy, Default)]
struct GroupDoc {
    /// Verdict accumulator (monotone within a document).
    accepted: bool,
    /// Whether the group is on the bank's `touched` list.
    touched: bool,
    /// Live dormant activations of this group.
    dormant: u32,
    /// Peak filter bits: the maximum, over time, of the *sum* of the
    /// group's simultaneously-live instance bits — overlapping
    /// activations (nested descendant prefixes) are charged together,
    /// exactly as one naive filter's frontier holds all simultaneous
    /// candidates at once.
    peak_bits: u64,
    /// Bits currently live (sum of `noted_bits` over live instances).
    live_bits: u64,
    /// Peak pending (unresolved-candidate) positions, summed over
    /// simultaneously-live instances like `peak_bits`.
    peak_pending: usize,
    /// Pending positions currently live (sum of `noted_pending`).
    live_pending: usize,
}

/// The wake-up conditions of a residual form's dormant activations:
/// one `(dispatch code, is-descendant)` pair per root-child record of
/// the compiled residual. A start event at relative depth `rel` inside
/// the activation subtree fires iff some pair matches the event's name
/// code (or is a wildcard) and either is descendant-axis or `rel == 0`.
#[derive(Debug, Clone)]
struct ResidualTriggers {
    specs: Vec<(u32, bool)>,
}

/// Derives a compiled residual's dormant wake-up specs. Attribute-axis
/// root children contribute **no** trigger: an attribute resolves only
/// off its parent's start tag, and a residual's root stands for the
/// activating element (or the virtual document root), whose tag precedes
/// the instance's event window — so such a child can never be satisfied
/// by any event the instance would see. An activation whose every root
/// child is attribute-axis therefore sleeps forever, which is exactly
/// the always-false verdict the (previously eager) instance computed
/// the expensive way.
fn triggers_for(compiled: &CompiledQuery) -> ResidualTriggers {
    let mut specs: Vec<(u32, bool)> = compiled
        .root_child_specs()
        .filter_map(|(sym, axis)| match axis {
            Axis::Attribute => None,
            Axis::Descendant => Some((sym_code(sym), true)),
            _ => Some((sym_code(sym), false)),
        })
        .collect();
    // One wake-up registration per distinct spec.
    specs.sort_unstable();
    specs.dedup();
    ResidualTriggers { specs }
}

/// *What the subscriptions are*: the half of an [`IndexedBank`] only
/// churn writes ([`IndexedBank::subscribe`] / [`IndexedBank::unsubscribe`]
/// / [`IndexedBank::compact`]).
/// Every clone of a bank shares it behind one `Arc`; the event handlers
/// receive it as `&Index` (see the module docs, "Index and run").
#[derive(Debug, Clone)]
struct Index {
    trie: Vec<TrieNode>,
    groups: Vec<Group>,
    /// The shared-residual pool: one entry per **canonical residual
    /// form**, `Arc`-shared by every group and activation that needs it.
    residuals: Vec<CompiledResidual>,
    /// Per pool entry, the wake-up specs of its dormant activations.
    residual_triggers: Vec<ResidualTriggers>,
    /// Per pool entry, the number of live (non-tombstoned) groups
    /// referencing it; an entry at zero keeps only its compiled `Arc`
    /// (the run drops its filter free-list on the spot) until a
    /// compaction pass drops the entry itself.
    residual_uses: Vec<u32>,
    /// Number of [`CompiledResidual`] builds this bank performed: one
    /// per canonical residual form first subscribed, and flat across
    /// any amount of processing *and churn over known forms*
    /// (activations, unsubscribes and compactions only move refcounts).
    built_residuals: u64,
    /// Groups with an empty sharable prefix, spawned at `StartDocument`
    /// as document-rooted instances (the naive-bank degenerate case).
    root_groups: Vec<u32>,
    /// Bank index (slot) → group index.
    query_group: Vec<u32>,
    /// Canonical query key → group index: the incremental grouping
    /// table [`IndexedBank::subscribe`] dedups into.
    group_of_key: HashMap<String, u32>,
    /// Canonical residual form → pool index: the cross-group dedup.
    pool_of_key: HashMap<String, u32>,
    /// Subscription id → current slot, for every live subscription.
    subs: HashMap<u64, usize>,
    /// Slot → subscription id (stale for tombstoned slots).
    slot_sub: Vec<u64>,
    /// Slot liveness: `false` marks a tombstone awaiting compaction.
    slot_alive: Vec<bool>,
    /// Slot → the subscribed query, retained so compaction can rebuild
    /// the index without consulting the caller (and without
    /// recompiling: compiled forms are carried over by canonical key).
    slot_query: Vec<Query>,
    /// Next subscription id (monotone; never reused).
    next_sub: u64,
    /// Number of tombstoned slots (the automatic compaction trigger).
    dead_slots: usize,
    /// Number of compaction passes performed.
    compactions: u64,
    /// The bank's shared symbol table: trie node tests and every
    /// compiled residual resolve against it, so one per-event
    /// conversion (or an already-interned event from a parser sharing
    /// the table) serves the whole bank.
    symbols: Arc<Symbols>,
    reporting: bool,
    /// Whether residuals share the canonical-form pool (false only for
    /// the unpooled differential-testing reference).
    pooled: bool,
    /// Bits of one trie-node reference, `bits_for(|trie| - 1)`,
    /// refreshed whenever the trie changes.
    trie_ref_bits: u32,
}

/// *Where the document is*: the half of an [`IndexedBank`] the event
/// handlers write — Theorem 8.8's work tape, with the [`Index`] as the
/// read-only input. Its per-group, per-residual and per-name tables are
/// sized by [`Run::fit`] in the churn call that grew the index.
#[derive(Debug, Clone, Default)]
struct Run {
    /// The shared frontier segment: one record per open occurrence of a
    /// trie path. A **stack** sorted by level — a start tag at level
    /// `l` pushes level `l + 1` only, an end tag pops the tail above
    /// the new level — each record also on its dispatch code's chain.
    records: Vec<TrieRec>,
    /// Heads of `records`' per-code chains.
    record_chains: Chains,
    /// Dormant activations (see [`Dormant`]): divergence points reached
    /// whose residual instances have not been woken yet. A stack sorted
    /// by `root_level`: the entries an element registers are the tail
    /// its end tag pops (woken ones stay as tombstones until then).
    dormant: Vec<Dormant>,
    /// The wake-up registrations of `dormant`'s entries, pushed and
    /// popped in lock-step with them.
    wake_links: Vec<WakeLink>,
    /// Heads of `wake_links`' per-code chains.
    wake_chains: Chains,
    /// Number of live entries in `dormant` ([`Run::is_live`]): what
    /// the shared-segment accounting charges.
    dormant_live: usize,
    instances: Vec<Instance>,
    /// Retired residual-instance filters, pooled per compiled-residual
    /// id: spawning an activation pops one (metrics reset, state reset
    /// by its `StartDocument`) instead of allocating fresh frontier and
    /// scratch buffers — the instance churn of a busy document touches
    /// the allocator only until the pool warms.
    free_filters: Vec<Vec<StreamFilter>>,
    /// Reused per-start-tag scratch: first the dormant entries the tag
    /// wakes, then the trie nodes it activates.
    scratch_activated: Vec<u32>,
    /// Reused attribute buffer for the owned-event conversion layer.
    attr_scratch: AttrBuf,
    /// Lock-free name-lookup memo for the owned-event conversion layer.
    name_cache: SymCache,
    current_level: u32,
    element_ordinal: u64,
    /// Terminal activations awaiting their close tag (for the span):
    /// `(level, group, ordinal, span start)`, stack-ordered.
    open_terminals: Vec<(u32, u32, u64, u64)>,
    /// Per-group verdicts and space peaks of the current document
    /// (parallel to the index's groups).
    doc: Vec<GroupDoc>,
    /// The `(group, ordinal)` pairs already reported this document, for
    /// groups with `needs_dedup` — no other group ever touches it.
    emitted: HashSet<(u32, u64)>,
    /// The groups whose `doc` entry may have left its default: the only
    /// ones the next `StartDocument` resets.
    touched: Vec<u32>,
    /// Whether `EndDocument` has been seen for the current document.
    finished: bool,

    // -- statistics ---------------------------------------------------------
    /// Peak number of shared trie records.
    peak_records: usize,
    /// Peak logical size of the shared frontier segment, in bits — one
    /// row per record, `log|trie| + log d + O(1)` bits per row (the
    /// Theorem 8.8 units of [`crate::SpaceStats`]).
    peak_trie_bits: u64,
    /// Peak number of simultaneously live residual instances.
    peak_instances: usize,
    /// Total residual instances spawned (the activation count).
    activations: u64,
    /// Total events processed.
    events: u64,
    /// Total trie records visited by start tags' chain walks.
    records_visited: u64,
    /// Total dormant wake-up registrations checked by start tags.
    dormant_checked: u64,
}

/// An indexed bank of streaming filters sharing one event feed *and*
/// the evaluation of common query prefixes.
///
/// The surface mirrors [`crate::MultiFilter`]: feed events through
/// [`IndexedBank::process`] / [`IndexedBank::process_to`], read
/// per-query verdicts from [`IndexedBank::results`] or
/// [`IndexedBank::matching`], and (in reporting mode) receive each
/// confirmed [`Match`] stamped with the bank index of the query that
/// selected it. Verdicts and routed matches are event-for-event
/// equivalent to the naive bank; only the work sharing differs.
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
    /// every query whose prefix runs through them).
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

impl Index {
    /// An index of no queries; they arrive through
    /// [`Index::insert_slot`].
    fn empty(reporting: bool, pooled: bool, symbols: Arc<Symbols>) -> Index {
        Index {
            trie: vec![TrieNode {
                axis: Axis::Child,
                ntest: NodeTest::Wildcard,
                code: WILDCARD_CODE,
                children: Vec::new(),
                terminal: Vec::new(),
                residual: Vec::new(),
            }],
            groups: Vec::new(),
            residuals: Vec::new(),
            residual_triggers: Vec::new(),
            residual_uses: Vec::new(),
            built_residuals: 0,
            root_groups: Vec::new(),
            query_group: Vec::new(),
            group_of_key: HashMap::new(),
            pool_of_key: HashMap::new(),
            subs: HashMap::new(),
            slot_sub: Vec::new(),
            slot_alive: Vec::new(),
            slot_query: Vec::new(),
            next_sub: 0,
            dead_slots: 0,
            compactions: 0,
            symbols,
            reporting,
            pooled,
            trie_ref_bits: bits_for(0),
        }
    }

    /// The shared insertion path of [`IndexedBank::subscribe`] and
    /// [`IndexedBank::compact`]: registers `q`, which
    /// [`CompiledQuery::check`] accepted for this bank, in the next slot
    /// under subscription `id` and returns its group. `warm` is the
    /// index a compaction is folding away, whose residual pool is
    /// carried over by canonical form — reinsertion compiles only on a
    /// warm-pool miss, which a pooled bank never hits.
    fn insert_slot(&mut self, q: &Query, id: SubscriptionId, warm: Option<&Index>) -> u32 {
        let slot = self.query_group.len();
        let form = CanonicalForm::of(q);
        let g = match self.group_of_key.get(&form.key) {
            Some(&g) => {
                self.join_group(g, slot);
                g
            }
            None => self.insert_group(q, form, slot, warm),
        };
        self.query_group.push(g);
        self.slot_sub.push(id.0);
        self.slot_alive.push(true);
        self.slot_query.push(q.clone());
        self.subs.insert(id.0, slot);
        g
    }

    /// Adds `slot` to the existing group `g`, reviving it if
    /// tombstoned (its trie linkage was never removed; it only needs
    /// its pool entry's use count back).
    fn join_group(&mut self, g: u32, slot: usize) {
        let group = &mut self.groups[g as usize];
        if let (true, Some(rid)) = (group.members.is_empty(), group.residual) {
            self.residual_uses[rid as usize] += 1;
        }
        group.members.push(slot);
    }

    /// Creates the group for a canonical form the bank has not seen:
    /// walks/extends the trie along the sharable prefix and wires the
    /// remainder into the residual pool. O(|query|) — the trie walk
    /// touches one node per prefix step, and appended nodes/groups
    /// never renumber existing ones.
    fn insert_group(
        &mut self,
        q: &Query,
        form: CanonicalForm,
        slot: usize,
        warm: Option<&Index>,
    ) -> u32 {
        let steps = &form.steps;
        let k = form.sharable;
        let mut node = 0u32;
        let mut needs_dedup = false;
        for step in &steps[..k] {
            needs_dedup |= step.axis == Axis::Descendant;
            node = match self.trie[node as usize]
                .children
                .iter()
                .copied()
                .find(|&c| {
                    self.trie[c as usize].axis == step.axis
                        && self.trie[c as usize].ntest == step.ntest
                }) {
                Some(c) => c,
                None => {
                    let id = self.trie.len() as u32;
                    let code = match &step.ntest {
                        NodeTest::Wildcard => WILDCARD_CODE,
                        NodeTest::Name(n) => sym_code(Some(self.symbols.intern(n))),
                    };
                    self.trie.push(TrieNode {
                        axis: step.axis,
                        ntest: step.ntest.clone(),
                        code,
                        children: Vec::new(),
                        terminal: Vec::new(),
                        residual: Vec::new(),
                    });
                    self.trie[node as usize].children.push(id);
                    self.trie_ref_bits = bits_for(self.trie.len() - 1);
                    id
                }
            };
        }
        let g = self.groups.len() as u32;
        let mut group = Group {
            members: vec![slot],
            residual: None,
            needs_dedup,
            document_rooted: false,
        };
        if k == steps.len() && k > 0 {
            self.trie[node as usize].terminal.push(g);
        } else {
            // A document-rooted remainder (k == 0) is the whole query;
            // its residual form is the full canonical key, so a root
            // group can still share its compiled form with a trie
            // group whose remainder renders identically.
            let rkey = form.residual_key(k);
            let r = match self.pool_hit(&rkey, warm) {
                Some(r) => r,
                None => {
                    // Genuinely new canonical form: compile it — the
                    // whole query for a document-rooted group.
                    let residual = (k > 0).then(|| residual_query(q, k));
                    let rc = CompiledQuery::compile_with(
                        residual.as_ref().unwrap_or(q),
                        Arc::clone(&self.symbols),
                    )
                    .expect("a checked query's residual compiles");
                    self.built_residuals += 1;
                    self.intern(CompiledResidual::build(rc, rkey))
                }
            };
            group.residual = Some(r);
            if k == 0 {
                self.root_groups.push(g);
                group.document_rooted = true;
            } else {
                self.trie[node as usize].residual.push(g);
            }
        }
        self.groups.push(group);
        self.group_of_key.insert(form.key, g);
        g
    }

    /// Looks up a canonical residual form: first in the live pool,
    /// then in the pool of the index a compaction is folding away (a
    /// hit there moves the entry — an `Arc` clone, never a build — into
    /// the live pool). Unpooled banks skip both, so every group owns a
    /// private fresh build.
    fn pool_hit(&mut self, rkey: &str, warm: Option<&Index>) -> Option<u32> {
        if !self.pooled {
            return None;
        }
        if let Some(&r) = self.pool_of_key.get(rkey) {
            self.residual_uses[r as usize] += 1;
            return Some(r);
        }
        let warm = warm?;
        let &r = warm.pool_of_key.get(rkey)?;
        Some(self.intern(warm.residuals[r as usize].clone()))
    }

    /// Adds a pool entry (with one use) and its dormant wake-up
    /// triggers.
    fn intern(&mut self, res: CompiledResidual) -> u32 {
        let r = self.residuals.len() as u32;
        self.pool_of_key.insert(res.key.clone(), r);
        self.residual_triggers.push(triggers_for(res.compiled()));
        self.residual_uses.push(1);
        self.residuals.push(res);
        r
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
    /// reporting mode and [`IndexedBank::process_to`] routes each
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

    // -- query churn --------------------------------------------------------

    /// Registers one more standing query, **incrementally** and in
    /// O(|query|): [`CompiledQuery::check`] decides it without building
    /// anything, the canonical chain is derived once, the shared prefix
    /// extends the live trie in place (no existing group, slot or record
    /// is renumbered), and the remainder reuses the shared residual pool
    /// whenever its canonical form is already compiled. Only a pool miss
    /// compiles — the residual, or the whole query for a document-rooted
    /// group — so [`IndexedBank::residual_builds`] moves only when a
    /// genuinely new form first appears, a known-form subscribe compiles
    /// nothing, and the bank as a whole is never recompiled.
    ///
    /// Call between documents: the new query takes effect at the next
    /// `StartDocument` (mid-document calls are safe but the query's
    /// view of the in-flight document is partial). Names the query adds
    /// to the table need no announcement — every name resolver on the
    /// table picks them up at its own next document (`fx_xml::SymCache`).
    pub fn subscribe(&mut self, q: &Query) -> Result<SubscriptionId, UnsupportedQuery> {
        // The check builds nothing: an unsupported query copies no index,
        // and an accepted one compiles only a residual form the pool lacks.
        CompiledQuery::check(q, self.index.reporting)?;
        let index = Arc::make_mut(&mut self.index);
        let id = SubscriptionId(index.next_sub);
        index.next_sub += 1;
        index.insert_slot(q, id, None);
        self.run.fit(index);
        Ok(id)
    }

    /// Withdraws a subscription in O(group size): the slot is
    /// tombstoned (live slots do not move), its group loses a member,
    /// and a group left empty is tombstoned with it — its live
    /// evaluation state is dropped on the spot, and a pool entry left
    /// without live groups releases its pooled filters so the shared
    /// residual's `Arc` refcounts drop back to the compiled entry
    /// alone. Nothing is recompiled; the inert trie linkage is folded
    /// away by the next [`IndexedBank::compact`] (automatic once
    /// tombstones are at least 16 and more than half the slots).
    ///
    /// Returns `false` for unknown or already-withdrawn ids.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let Some(&slot) = self.index.subs.get(&id.0) else {
            return false;
        };
        let index = Arc::make_mut(&mut self.index);
        index.subs.remove(&id.0);
        index.slot_alive[slot] = false;
        index.dead_slots += 1;
        let g = index.query_group[slot] as usize;
        let group = &mut index.groups[g];
        if let Some(pos) = group.members.iter().position(|&m| m == slot) {
            group.members.swap_remove(pos);
        }
        if group.members.is_empty() {
            if let Some(rid) = group.residual {
                index.residual_uses[rid as usize] -= 1;
            }
            self.run.drop_group(index, g);
        }
        self.maybe_compact();
        true
    }

    /// Folds every tombstoned slot away: builds a fresh index — trie,
    /// groups and slot table — from the surviving subscriptions beside
    /// the old one and swaps it in (so compacting an index other banks
    /// share copies nothing), renumbering **slots** only;
    /// [`SubscriptionId`]s are stable and re-resolve through
    /// [`IndexedBank::slot_of`]. Residual-pool entries no surviving
    /// group references are left behind. The pass *moves* the existing
    /// compiled residuals into the new pool (`Arc` clones) and checks
    /// nothing again, so it performs **zero** query compilations:
    /// [`IndexedBank::residual_builds`] is unchanged.
    ///
    /// Only effective between documents (mid-document calls return
    /// `false` and change nothing). Returns `true` when a rebuild
    /// happened.
    pub fn compact(&mut self) -> bool {
        let (old, run) = (&*self.index, &mut self.run);
        // "Between documents" ⇔ nothing processed yet, or the last
        // document ran to `EndDocument`.
        if old.dead_slots == 0 || !(run.events == 0 || run.finished) {
            return false;
        }
        debug_assert!(
            run.instances.is_empty() && run.dormant.is_empty() && run.records.is_empty(),
            "`EndDocument` empties the frontier"
        );
        let mut index = Index::empty(old.reporting, old.pooled, Arc::clone(&old.symbols));
        index.built_residuals = old.built_residuals;
        index.next_sub = old.next_sub;
        index.compactions = old.compactions + 1;
        // New group → the old group it continues.
        let mut continues: Vec<u32> = Vec::new();
        for slot in (0..old.slot_alive.len()).filter(|&s| old.slot_alive[s]) {
            let id = SubscriptionId(old.slot_sub[slot]);
            let g = index.insert_slot(&old.slot_query[slot], id, Some(old));
            if g as usize == continues.len() {
                continues.push(old.query_group[slot]);
            }
        }
        // Per-group history — peaks and the last document's verdicts —
        // crosses the renumbering; pooled filters do not (the pool ids
        // moved), and the rest restarts at the next `StartDocument`.
        run.doc = (continues.iter().map(|&g| &run.doc[g as usize]))
            .map(|was| GroupDoc {
                accepted: was.accepted,
                touched: true,
                peak_bits: was.peak_bits,
                peak_pending: was.peak_pending,
                ..GroupDoc::default()
            })
            .collect();
        run.touched.clear();
        run.touched.extend(0..continues.len() as u32);
        run.free_filters.clear();
        run.fit(&index);
        self.index = Arc::new(index);
        true
    }

    fn maybe_compact(&mut self) {
        let index = &self.index;
        if index.dead_slots >= MIN_TOMBSTONES && 2 * index.dead_slots > index.query_group.len() {
            self.compact();
        }
    }

    /// The stable id of the subscription currently occupying `slot`
    /// (`None` for tombstoned or out-of-range slots) — the inverse of
    /// [`IndexedBank::slot_of`], for translating a routed [`Match`]'s
    /// bank index back to its subscriber.
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

    /// Number of distinct canonical query groups (each evaluated once).
    pub fn group_count(&self) -> usize {
        self.index.groups.len()
    }

    /// Number of distinct canonical residual forms in the shared pool —
    /// at most the number of residual-bearing groups, and strictly less
    /// whenever remainders repeat across trie groups.
    pub fn residual_pool_size(&self) -> usize {
        self.index.residuals.len()
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

    /// Number of shared trie nodes (excluding the virtual root).
    pub fn shared_nodes(&self) -> usize {
        self.index.trie.len() - 1
    }

    /// Peak number of simultaneously live residual instances.
    pub fn peak_live_instances(&self) -> usize {
        self.run.peak_instances
    }

    /// Feeds one event to the index (no span information; reported
    /// matches carry [`Span::EMPTY`]).
    pub fn process(&mut self, event: &Event) {
        self.process_to(event, Span::EMPTY, &mut |_: Match| {});
    }

    /// Feeds one event with its source span, routing any matches it
    /// confirmed to `sink` — each stamped with the bank index of the
    /// query that selected it. Filtering-mode banks never call the sink.
    pub fn process_to(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        let (index, run) = (&*self.index, &mut self.run);
        // One conversion to the interned form serves the shared trie
        // walk and every live residual instance.
        let mut scratch = std::mem::take(&mut run.attr_scratch);
        let ev = scratch.sym_event(&mut run.name_cache, &index.symbols, event);
        run.process(index, ev, span, sink);
        run.attr_scratch = scratch;
    }

    /// [`IndexedBank::process_to`] over an already-interned event (syms
    /// from the bank's table, [`IndexedBank::symbols`]) — the zero-copy
    /// hot path a `StreamingParser` sharing the table feeds directly.
    pub fn process_sym_to(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        self.run.process(&self.index, event, span, sink);
    }

    /// [`IndexedBank::process_sym_to`] over a whole [`EventBatch`]: the
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

    /// The bank's shared symbol table: hand it to
    /// `fx_xml::StreamingParser::with_symbols` so parsed events arrive
    /// already interned and [`IndexedBank::process_sym_to`] dispatches
    /// without any per-event name lookup.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.index.symbols
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

    /// Per-query **attributed** peak bits, comparable with
    /// [`crate::MultiFilter`]'s per-filter figures: each group's peak
    /// residual-instance bits are split evenly across the group's
    /// members, and the shared trie's peak bits evenly across the
    /// queries whose prefixes live in the trie (integer remainders go to
    /// the lowest-ranked sharers), so the vector sums **exactly** to
    /// [`IndexedBank::total_max_bits`]. Queries whose prefix never
    /// activated are charged only their share of the trie. Under real
    /// sharing (families of queries per trie path) a query's attribution
    /// sits well below what a standalone [`crate::StreamFilter`] run of
    /// the same query would cost; with only a handful of sharers the
    /// trie share — whose rows cost `log|trie|` where a lone filter's
    /// cost `log|Q|` — can exceed a solo run's figure by a bit or two.
    pub fn peak_memory_bits(&self) -> Vec<u64> {
        let (index, run) = (&*self.index, &self.run);
        let mut out = vec![0u64; index.query_group.len()];
        // Only a touched group can hold a peak.
        for &g in &run.touched {
            let members = &index.groups[g as usize].members;
            let bits = run.doc[g as usize].peak_bits;
            split_evenly(bits, members.len(), members.iter().copied(), &mut out);
        }
        // The trie sharers are everything alive except the members of
        // the empty-prefix root groups, counted from the group side and
        // charged in one pass over the slots — no sharer list is built.
        let alive = (0..index.query_group.len()).filter(|&i| index.slot_alive[i]);
        let rooted: usize = index
            .root_groups
            .iter()
            .map(|&g| index.groups[g as usize].members.len())
            .sum();
        let sharers = index.subs.len() - rooted;
        if sharers == 0 {
            // Every trie query unsubscribed mid-life: the segment's
            // history has no natural owner left, so spread it over
            // whatever is still alive to keep the attribution summing
            // exactly to the bank total.
            split_evenly(run.peak_trie_bits, index.subs.len(), alive, &mut out);
        } else {
            let sharing =
                alive.filter(|&i| !index.groups[index.query_group[i] as usize].document_rooted);
            split_evenly(run.peak_trie_bits, sharers, sharing, &mut out);
        }
        out
    }

    /// Per-query peak counts of buffered unresolved candidate positions
    /// (all zero for filtering-mode banks) — the \[5\] selection cost.
    /// A query reports its group's peak, which counts the group's
    /// simultaneously-live instances together (one naive filter would
    /// buffer all those candidacies in a single reporter).
    pub fn peak_pending_positions(&self) -> Vec<usize> {
        let (index, doc) = (&*self.index, &self.run.doc);
        if !index.reporting {
            return vec![0; index.query_group.len()];
        }
        (index.query_group.iter())
            .map(|&g| doc[g as usize].peak_pending)
            .collect()
    }

    /// Aggregate peak logical state across the bank, in bits: the peak
    /// shared-trie segment plus the sum of per-group instance peaks
    /// (shared state counted **once** — that is the point of the index).
    /// Directly comparable with [`crate::MultiFilter::total_max_bits`],
    /// which sums per-filter peaks the same way; equals the sum of
    /// [`IndexedBank::peak_memory_bits`] exactly.
    pub fn total_max_bits(&self) -> u64 {
        self.space_stats().total_bits
    }

    /// The bank-level space/activation breakdown (see
    /// [`IndexSpaceStats`]).
    pub fn space_stats(&self) -> IndexSpaceStats {
        let run = &self.run;
        // Only a touched group can hold a peak.
        let residual_bits = (run.touched.iter())
            .map(|&g| run.doc[g as usize].peak_bits)
            .sum();
        IndexSpaceStats {
            shared_trie_bits: run.peak_trie_bits,
            residual_bits,
            total_bits: run.peak_trie_bits + residual_bits,
            peak_records: run.peak_records,
            peak_instances: run.peak_instances,
            activations: run.activations,
            events: run.events,
            groups: self.index.groups.len(),
            residual_pool: self.index.residuals.len(),
        }
    }
}

impl Run {
    /// A run at the start of its first document, sized for `index`.
    fn new(index: &Index) -> Run {
        let mut run = Run::default();
        run.fit(index);
        run
    }

    /// Grows the tables that parallel the index — a [`GroupDoc`] per
    /// group, a filter free-list per pool entry, a chain head per
    /// dispatch code — to what `index` now holds. Every code is a sym
    /// of the bank's table (or one of the two reserved codes), so the
    /// table's length bounds them all. Churn calls this before it
    /// returns: a handler indexes these tables unchecked.
    fn fit(&mut self, index: &Index) {
        self.doc.resize(index.groups.len(), GroupDoc::default());
        self.free_filters
            .resize_with(index.residuals.len(), Vec::new);
        let heads = index.symbols.len() + 2;
        self.record_chains.fit(heads);
        self.wake_chains.fit(heads);
    }

    /// Empties the shared segment — records, dormant activations, their
    /// chains — and removes every live instance, in time proportional
    /// to what is there: the stacks pop, the head tables are never
    /// swept. Every exit that leaves per-document state behind (a parse
    /// error, a clone taken mid-document) comes through here by the
    /// next `StartDocument`.
    fn clear_frontier(&mut self, index: &Index) {
        while let Some(rec) = self.records.pop() {
            self.record_chains
                .pop(rec.code, self.records.len(), rec.prev);
        }
        // Entry by entry, so each group's live-dormant count comes
        // back to zero with the bank's (a document-rooted activation
        // that never woke is still live at `EndDocument`).
        while !self.dormant.is_empty() {
            self.pop_dormant(index);
        }
        debug_assert!(self.wake_links.is_empty() && self.dormant_live == 0);
        while !self.instances.is_empty() {
            self.remove_instance(index, self.instances.len() - 1);
        }
    }

    /// Restores the start-of-document state: an empty frontier, default
    /// [`GroupDoc`]s (only touched groups ever left it) and fresh
    /// per-document peaks — a reused bank reports what a fresh one
    /// would. `activations`/`events` stay cumulative.
    fn reset_document(&mut self, index: &Index) {
        self.clear_frontier(index);
        while let Some(g) = self.touched.pop() {
            self.doc[g as usize] = GroupDoc::default();
        }
        self.emitted.clear();
        self.open_terminals.clear();
        self.current_level = 0;
        self.element_ordinal = 0;
        self.finished = false;
        self.peak_records = 0;
        self.peak_trie_bits = 0;
        self.peak_instances = 0;
    }

    /// Group `g`'s per-document state, for writing: the next
    /// `StartDocument` will reset it.
    #[inline]
    fn touch(&mut self, g: usize) -> &mut GroupDoc {
        let doc = &mut self.doc[g];
        if !doc.touched {
            doc.touched = true;
            self.touched.push(g as u32);
        }
        doc
    }

    /// Group `g` lost its last member ([`IndexedBank::unsubscribe`]):
    /// drops its live per-document state — open residual instances,
    /// dormant activations and pending terminal spans (a mid-document
    /// unsubscribe simply stops evaluating) — and its history.
    fn drop_group(&mut self, index: &Index, g: usize) {
        let mut i = 0;
        while i < self.instances.len() {
            if self.instances[i].group as usize == g {
                self.remove_instance(index, i);
            } else {
                i += 1;
            }
        }
        // Churn path, not the per-event one: tombstone the group's
        // dormant entries where they stand (they pop with their
        // activating elements) and release their share of the live count.
        for d in &mut self.dormant {
            d.live &= d.group as usize != g;
        }
        self.open_terminals
            .retain(|&(_, og, _, _)| og as usize != g);
        if let Some(rid) = index.groups[g].residual {
            if index.residual_uses[rid as usize] == 0 {
                // Each pooled filter holds an `Arc` of the compiled
                // residual: dropping the free-list now leaves the
                // pool entry as the form's last reference.
                self.free_filters[rid as usize].clear();
            }
        }
        // Historical peaks leave with the group's last owner, so the
        // per-query attribution keeps summing exactly over the queries
        // that still exist.
        let doc = &mut self.doc[g];
        self.dormant_live -= doc.dormant as usize;
        *doc = GroupDoc {
            touched: doc.touched,
            ..GroupDoc::default()
        };
    }

    // -- event handlers -----------------------------------------------------

    fn process(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        self.events += 1;
        match event {
            SymEvent::StartDocument => self.start_document(index),
            SymEvent::StartElement { name, .. } => {
                self.start_element(index, event, name, span, sink)
            }
            SymEvent::EndElement { .. } => self.end_element(index, event, span, sink),
            SymEvent::Text { .. } if self.instances.is_empty() => {}
            SymEvent::Text { .. } => {
                self.feed_instances(index, event, span, self.current_level as i64, sink)
            }
            SymEvent::EndDocument => self.end_document(index, sink),
        }
    }

    fn start_document(&mut self, index: &Index) {
        self.reset_document(index);
        for &c in &index.trie[0].children {
            self.push_record(index, c, 0);
        }
        // Empty-prefix groups run as document-rooted activations:
        // exactly the naive bank's per-query filters (short-circuiting
        // included), except they stay dormant until the document shows
        // a root-record match — the naive bank's dominant root-tag
        // early-reject case costs them nothing here.
        for &g in &index.root_groups {
            if index.groups[g as usize].members.is_empty() {
                continue; // tombstoned, awaiting compaction
            }
            self.activate(index, g, -1);
        }
        self.note_trie_peak(index);
    }

    fn start_element(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        name: Sym,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        let lvl = self.current_level;
        // Feed instances rooted strictly above this element first; the
        // instances this element spawns below must not see its start tag
        // (they are rooted *at* it).
        self.feed_instances(index, event, span, lvl as i64, sink);
        // Wake any dormant activation this start tag triggers (the
        // woken instance receives this very event as its first);
        // activations registered *by* this element below are appended
        // afterwards and correctly sleep through it.
        let code = name.index() as u32;
        self.trigger_dormant(index, event, code, lvl, span, sink);

        // Which trie nodes does this element activate? Only a record
        // chained under the element's own name or under the wildcard can
        // say — per record, one level compare (every open record sits at
        // or above `lvl`, so a descendant-axis record always passes).
        self.scratch_activated.clear();
        for head in [code, WILDCARD_CODE].map(|c| self.record_chains.head(c)) {
            let mut at = head;
            while at != NIL {
                let rec = &self.records[at as usize];
                debug_assert!(rec.code == code || rec.code == WILDCARD_CODE);
                debug_assert!(rec.level <= lvl);
                self.records_visited += 1;
                if (rec.descendant || rec.level == lvl)
                    && !self.scratch_activated.contains(&rec.node)
                {
                    self.scratch_activated.push(rec.node);
                }
                at = rec.prev;
            }
        }
        for ai in 0..self.scratch_activated.len() {
            let node = &index.trie[self.scratch_activated[ai] as usize];
            // No record sits at `lvl + 1` yet (the last end tag popped
            // them) and this node, the one parent of `c`, activates once.
            for &c in &node.children {
                self.push_record(index, c, lvl + 1);
            }
            for &g in &node.terminal {
                if index.groups[g as usize].members.is_empty() {
                    continue; // tombstoned, awaiting compaction
                }
                self.touch(g as usize);
                if index.reporting {
                    self.open_terminals
                        .push((lvl, g, self.element_ordinal, span.start));
                } else {
                    self.accept(index, g as usize);
                }
            }
            for &g in &node.residual {
                if index.groups[g as usize].members.is_empty() {
                    continue; // tombstoned, awaiting compaction
                }
                // Decided-group short-circuit: a filtering group already
                // accepted needs no further instances.
                if !index.reporting && self.doc[g as usize].accepted {
                    continue;
                }
                self.activate(index, g, lvl as i64);
            }
        }
        self.element_ordinal += 1;
        self.current_level = lvl + 1;
        self.note_trie_peak(index);
    }

    /// Updates the shared-segment peaks: record count, and the segment's
    /// logical size in bits — one row per record, each a trie-node
    /// reference plus an insertion level plus O(1) flags, mirroring
    /// [`crate::SpaceStats::bits_per_row`]'s `log|Q| + log d + 1` shape
    /// with the trie standing in for the query.
    fn note_trie_peak(&mut self, index: &Index) {
        self.peak_records = self.peak_records.max(self.records.len());
        let row_bits = (index.trie_ref_bits + bits_for(self.current_level as usize) + 1) as u64;
        // Dormant activations are bank state too: charge each live one
        // as one shared-segment row (a group reference plus a level —
        // the same shape as a trie record).
        let rows = (self.records.len() + self.dormant_live) as u64;
        self.peak_trie_bits = self.peak_trie_bits.max(rows * row_bits);
    }

    fn end_element(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        let new_level = self.current_level.saturating_sub(1);
        // Instances strictly inside see the end tag; the ones rooted at
        // the closing element get `EndDocument` instead, below.
        self.feed_instances(index, event, span, new_level as i64, sink);
        self.current_level = new_level;

        // Retire instances rooted at the closing element.
        let mut i = 0;
        while i < self.instances.len() {
            if self.instances[i].root_level == new_level as i64 {
                self.retire_instance(index, i, sink);
            } else {
                i += 1;
            }
        }

        // Pop the shared records spawned inside the closing element —
        // the tail of the level-sorted stack, each the head of its chain
        // — and the dormant activations rooted at it: their subtree
        // ended with no wake-up, so their verdicts are (correctly) still
        // false and the instance never needed to exist.
        while let Some(rec) = self.records.pop_if(|r| r.level > new_level) {
            self.record_chains
                .pop(rec.code, self.records.len(), rec.prev);
        }
        debug_assert!(self.records.windows(2).all(|w| w[0].level <= w[1].level));
        while (self.dormant.last()).is_some_and(|d| d.root_level >= new_level as i64) {
            self.pop_dormant(index);
        }

        // Terminal activations of the closing element: the span is now
        // complete, and — the chain being predicate-free — the match is
        // definitely confirmed.
        while let Some((_, g, ordinal, start)) =
            self.open_terminals.pop_if(|&mut (l, ..)| l == new_level)
        {
            let span = Span::new(start, span.end);
            emit(
                index,
                &mut self.doc,
                &mut self.emitted,
                g as usize,
                ordinal,
                span,
                sink,
            );
        }
    }

    fn end_document(&mut self, index: &Index, sink: &mut dyn MatchSink) {
        while !self.instances.is_empty() {
            self.retire_instance(index, 0, sink);
        }
        debug_assert_eq!(
            self.dormant_live,
            self.dormant
                .iter()
                .filter(|d| self.is_live(index, d))
                .count()
        );
        self.clear_frontier(index);
        self.finished = true;
    }

    /// Appends an open-occurrence record for trie node `t`, inlining its
    /// dispatch code and axis, at the head of its code's chain.
    fn push_record(&mut self, index: &Index, t: u32, level: u32) {
        let node = &index.trie[t as usize];
        let prev = self.record_chains.push(node.code, self.records.len());
        self.records.push(TrieRec {
            node: t,
            level,
            code: node.code,
            prev,
            descendant: node.axis == Axis::Descendant,
        });
    }

    // -- instance plumbing --------------------------------------------------

    /// Registers an activation of group `g` rooted at `root_level`: a
    /// dormant entry chained under every dispatch code that can wake
    /// it, woken by the first event that would select one of the
    /// residual's root records. Every residual form is dormancy-eligible
    /// — attribute-axis root children, which the wake check does not
    /// model, are provably unsatisfiable inside the activation subtree
    /// (see [`triggers_for`]), so skipping their triggers loses nothing.
    fn activate(&mut self, index: &Index, g: u32, root_level: i64) {
        let rid = index.groups[g as usize]
            .residual
            .expect("only residual groups activate");
        let entry = self.dormant.len() as u32;
        self.dormant.push(Dormant {
            group: g,
            root_level,
            links: self.wake_links.len() as u32,
            live: true,
        });
        for &(code, descendant) in &index.residual_triggers[rid as usize].specs {
            let prev = self.wake_chains.push(code, self.wake_links.len());
            self.wake_links.push(WakeLink {
                entry,
                code,
                prev,
                descendant,
            });
        }
        self.dormant_live += 1;
        self.touch(g as usize).dormant += 1;
    }

    /// Whether a dormant entry still awaits its wake-up: not a
    /// tombstone, and (filtering mode) its group not yet accepted — an
    /// accepted group needs no instance.
    #[inline]
    fn is_live(&self, index: &Index, d: &Dormant) -> bool {
        d.live && (index.reporting || !self.doc[d.group as usize].accepted)
    }

    /// Takes a live entry out of the shared-segment accounting.
    fn release_dormant(&mut self, g: usize) {
        self.dormant_live -= 1;
        self.doc[g].dormant -= 1;
    }

    /// Pops the last dormant entry, unchaining its wake links — each
    /// the head of its chain, the stacks popping in lock-step.
    fn pop_dormant(&mut self, index: &Index) {
        let d = self.dormant.pop().expect("caller saw an entry");
        if self.is_live(index, &d) {
            self.release_dormant(d.group as usize);
        }
        while self.wake_links.len() > d.links as usize {
            let link = self.wake_links.pop().expect("non-empty");
            self.wake_chains
                .pop(link.code, self.wake_links.len(), link.prev);
        }
    }

    /// Records group `g`'s accept. In filtering mode an accepted group
    /// needs no further instances, so its dormant activations leave the
    /// accounting here ([`Run::is_live`]) and pop, unvisited, with
    /// their elements.
    fn accept(&mut self, index: &Index, g: usize) {
        let doc = &mut self.doc[g];
        debug_assert!(doc.touched, "activation or confirmation precedes an accept");
        doc.accepted = true;
        if !index.reporting {
            self.dormant_live -= std::mem::take(&mut doc.dormant) as usize;
        }
    }

    /// Wakes every dormant activation the current start tag triggers —
    /// found through the wake chains of the tag's own name and of the
    /// wildcard, oldest activation first: the woken instance is
    /// fast-forwarded to its relative depth (the skipped events
    /// provably left it untouched — nothing selected) and fed this
    /// event as its first.
    fn trigger_dormant(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        code: u32,
        lvl: u32,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        self.scratch_activated.clear();
        for head in [code, WILDCARD_CODE].map(|c| self.wake_chains.head(c)) {
            let mut at = head;
            while at != NIL {
                let link = &self.wake_links[at as usize];
                self.dormant_checked += 1;
                let d = &self.dormant[link.entry as usize];
                // Relative depth 0 = a child of the activating element.
                if d.live && (link.descendant || lvl as i64 == d.root_level + 1) {
                    self.scratch_activated.push(link.entry);
                }
                at = link.prev;
            }
        }
        self.scratch_activated.sort_unstable();
        self.scratch_activated.dedup();
        for i in 0..self.scratch_activated.len() {
            let entry = self.scratch_activated[i];
            let d = self.dormant[entry as usize];
            // An earlier wake-up on this very tag may have accepted the
            // group (filtering mode): no instance needed.
            if !self.is_live(index, &d) {
                continue;
            }
            self.dormant[entry as usize].live = false;
            self.release_dormant(d.group as usize);
            let rel = lvl as i64 - d.root_level - 1;
            debug_assert!(rel >= 0, "dormant entries live above the event");
            let idx = self.spawn_instance(index, d.group, d.root_level, rel as usize);
            self.feed_one(index, idx, event, span, sink);
        }
    }

    /// The one way in for a residual instance: an `Arc` bump on the
    /// group's pooled [`CompiledResidual`] plus empty per-instance
    /// state (a recycled filter when the pool has one), rooted at the
    /// element open at `root_level` and fast-forwarded to relative
    /// depth `fast_forward`. No compilation, no deep clone, no per-step
    /// allocation — the hot path the shared pool exists for. Returns
    /// the instance's index.
    fn spawn_instance(
        &mut self,
        index: &Index,
        g: u32,
        root_level: i64,
        fast_forward: usize,
    ) -> usize {
        let rid = index.groups[g as usize]
            .residual
            .expect("only residual groups spawn instances") as usize;
        // A pooled filter needs no scrubbing: the `StartDocument` below
        // restarts its statistics along with its frontier.
        let mut filter = self.free_filters[rid].pop().unwrap_or_else(|| {
            let compiled = Arc::clone(&index.residuals[rid].compiled);
            if index.reporting {
                StreamFilter::from_shared_reporting(compiled)
                    .expect("a reporting bank checks reporting support at subscribe")
            } else {
                StreamFilter::from_shared(compiled)
            }
        });
        filter.process_sym(SymEvent::StartDocument, Span::EMPTY);
        if fast_forward > 0 {
            filter.fast_forward(fast_forward);
        }
        let i = self.instances.len();
        self.instances.push(Instance {
            group: g,
            filter,
            ordinal_offset: self.element_ordinal,
            root_level,
            progress: 0,
            noted_bits: 0,
            noted_pending: 0,
        });
        self.fold_growth(i);
        self.activations += 1;
        self.peak_instances = self.peak_instances.max(self.instances.len());
        i
    }

    /// Feeds `event` to every instance rooted strictly above `threshold`
    /// (the level the event occurs at), draining matches and applying
    /// the decided-filter short-circuit in filtering mode.
    fn feed_instances(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        span: Span,
        threshold: i64,
        sink: &mut dyn MatchSink,
    ) {
        let mut i = 0;
        while i < self.instances.len() {
            let inst = &self.instances[i];
            if !index.reporting && self.doc[inst.group as usize].accepted {
                // The group already accepted: its verdict cannot change,
                // so the instance is pure overhead. Same rationale as
                // MultiFilter's decided-filter skip.
                self.remove_instance(index, i);
            } else if threshold <= inst.root_level || !self.feed_one(index, i, event, span, sink) {
                i += 1;
            }
        }
    }

    /// Feeds `event` to instance `i` with full bookkeeping (match
    /// draining, decided short-circuit, space-delta folding). Returns
    /// `true` when the instance was removed (its slot now holds the
    /// previous last instance, swap-remove style).
    fn feed_one(
        &mut self,
        index: &Index,
        i: usize,
        event: SymEvent<'_>,
        span: Span,
        sink: &mut dyn MatchSink,
    ) -> bool {
        self.instances[i].filter.process_sym(event, span);
        let mut decided = None;
        if index.reporting {
            self.drain(index, i, sink);
        } else {
            let inst = &mut self.instances[i];
            let p = inst.filter.match_progress();
            if p != inst.progress {
                inst.progress = p;
                // The early-reject branch of `decided()` assumes level-0
                // child-axis candidates are exhausted after one element
                // — true only for a document's unique root. An
                // element-rooted instance sees every child of its
                // activation element at level 0, so for it only the
                // (monotone) accept is decisive.
                decided = (inst.filter.decided()).filter(|&accept| accept || inst.root_level < 0);
            }
        }
        self.fold_growth(i);
        let Some(accept) = decided else {
            return false;
        };
        if accept {
            self.accept(index, self.instances[i].group as usize);
        }
        self.remove_instance(index, i);
        true
    }

    /// Sends `EndDocument` to instance `i`, harvests its verdict and any
    /// final matches, and removes it.
    fn retire_instance(&mut self, index: &Index, i: usize, sink: &mut dyn MatchSink) {
        let inst = &mut self.instances[i];
        inst.filter.process_sym(SymEvent::EndDocument, Span::EMPTY);
        let (g, accept) = (inst.group as usize, inst.filter.result() == Some(true));
        if index.reporting {
            self.drain(index, i, sink);
        }
        if accept {
            self.accept(index, g);
        }
        self.remove_instance(index, i);
    }

    /// Routes the matches instance `i` confirmed since its last drain
    /// (reporting mode), instance-local ordinals made global.
    fn drain(&mut self, index: &Index, i: usize, sink: &mut dyn MatchSink) {
        let Run {
            instances,
            doc,
            emitted,
            ..
        } = self;
        let inst = &mut instances[i];
        let (g, offset) = (inst.group as usize, inst.ordinal_offset);
        inst.filter.drain_matches(0, &mut |m: Match| {
            emit(index, doc, emitted, g, m.ordinal + offset, m.span, sink)
        });
    }

    /// Folds what instance `i`'s monotone peaks grew by since they were
    /// last noted into its group's live totals, so the group peaks
    /// charge simultaneously-live instances *together* — overlapping
    /// activations (nested descendant prefixes) cost what one naive
    /// filter would holding all their candidates at once.
    fn fold_growth(&mut self, i: usize) {
        let inst = &mut self.instances[i];
        let doc = &mut self.doc[inst.group as usize];
        let bits = inst.filter.stats().max_bits;
        if bits > inst.noted_bits {
            doc.live_bits += bits - inst.noted_bits;
            doc.peak_bits = doc.peak_bits.max(doc.live_bits);
            inst.noted_bits = bits;
        }
        let pending = inst.filter.peak_pending_positions();
        if pending > inst.noted_pending {
            doc.live_pending += pending - inst.noted_pending;
            doc.peak_pending = doc.peak_pending.max(doc.live_pending);
            inst.noted_pending = pending;
        }
    }

    /// The one way out for a residual instance (its slot then holds the
    /// previous last instance, swap-remove style): its final growth is
    /// folded into its group's peaks, its share of the group's live
    /// totals released, and its filter returned to the per-residual
    /// pool for the next activation to reuse.
    fn remove_instance(&mut self, index: &Index, i: usize) {
        self.fold_growth(i);
        let inst = self.instances.swap_remove(i);
        let doc = &mut self.doc[inst.group as usize];
        doc.live_bits -= inst.noted_bits;
        doc.live_pending -= inst.noted_pending;
        if let Some(rid) = index.groups[inst.group as usize].residual {
            self.free_filters[rid as usize].push(inst.filter);
        }
    }
}

/// Routes one confirmed match of reporting group `g` to every member,
/// deduplicating ordinals for groups whose descendant-axis prefixes
/// allow nested activations to confirm the same element twice. A free
/// function over the fields it writes, so a live instance can drain
/// straight into it.
fn emit(
    index: &Index,
    doc: &mut [GroupDoc],
    emitted: &mut HashSet<(u32, u64)>,
    g: usize,
    ordinal: u64,
    span: Span,
    sink: &mut dyn MatchSink,
) {
    let group = &index.groups[g];
    debug_assert!(
        doc[g].touched,
        "activation or confirmation precedes a match"
    );
    doc[g].accepted = true;
    if group.needs_dedup && !emitted.insert((g as u32, ordinal)) {
        return;
    }
    for &m in &group.members {
        sink.on_match(Match {
            query: m,
            ordinal,
            span,
        });
    }
}

/// Adds `bits` to `out`, split evenly across the `k` bank indices
/// `sharers` yields; the integer remainder goes one extra bit apiece to
/// the lowest-ranked sharers, so the split sums back to `bits` exactly.
/// An empty sharer set only arises when `bits` is already zero (a bank
/// with no trie never pushes a record).
fn split_evenly(bits: u64, k: usize, sharers: impl Iterator<Item = usize>, out: &mut [u64]) {
    if k == 0 || bits == 0 {
        return;
    }
    let (base, rem) = (bits / k as u64, bits % k as u64);
    for (rank, i) in sharers.enumerate() {
        debug_assert!(rank < k);
        out[i] += base + u64::from((rank as u64) < rem);
    }
}

/// Builds the residual query of `q` below a sharable prefix of length
/// `skip`: the subtree rooted at chain node `u_{skip+1}`, re-rooted so
/// its first step is relative to a prefix-activation element.
fn residual_query(q: &Query, skip: usize) -> Query {
    let mut chain = Vec::new();
    let mut cur = q.root();
    while let Some(n) = q.successor(cur) {
        chain.push(n);
        cur = n;
    }
    let start = chain[skip];
    let mut rq = Query::new();
    let root = rq.root();
    let mut map: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    copy_subtree(q, start, &mut rq, root, &mut map);
    rq.set_successor(root, map[&start]);
    rq
}

fn copy_subtree(
    q: &Query,
    u: QueryNodeId,
    rq: &mut Query,
    parent: QueryNodeId,
    map: &mut HashMap<QueryNodeId, QueryNodeId>,
) {
    let id = rq.add_node(
        parent,
        q.axis(u).unwrap_or(Axis::Child),
        q.ntest(u).cloned().unwrap_or(NodeTest::Wildcard),
    );
    map.insert(u, id);
    for c in q.children(u).to_vec() {
        copy_subtree(q, c, rq, id, map);
    }
    if let Some(s) = q.successor(u) {
        rq.set_successor(id, map[&s]);
    }
    if let Some(p) = q.predicate(u) {
        rq.set_predicate(id, p.map_vars(|v| map[&v]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiFilter;
    use fx_xpath::parse_query;

    fn bank(srcs: &[&str]) -> (IndexedBank, MultiFilter) {
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        (
            IndexedBank::new(&queries).unwrap(),
            MultiFilter::new(&queries).unwrap(),
        )
    }

    fn feed_both(ib: &mut IndexedBank, mf: &mut MultiFilter, xml: &str) {
        for e in &fx_xml::parse(xml).unwrap() {
            ib.process(e);
            mf.process(e);
        }
        assert_eq!(ib.results(), mf.results(), "{xml}");
    }

    #[test]
    fn shared_prefix_families_agree_with_naive_bank() {
        let (mut ib, mut mf) = bank(&[
            "/site/regions/asia/item",
            "/site/regions/asia/item[price > 100]",
            "/site/regions/europe/item",
            "/site/regions/europe/item[shipping]",
            "//category//name",
            "/doc[title]",
        ]);
        // Trie sharing: the two asia queries share site/regions/asia, the
        // europe ones site/regions/europe → well under 6 separate chains.
        assert!(ib.shared_nodes() <= 8, "{}", ib.shared_nodes());
        for xml in [
            "<site><regions><asia><item><price>150</price></item></asia></regions></site>",
            "<site><regions><europe><item><shipping/></item></europe></regions></site>",
            "<site><categories><category><name>x</name></category></categories></site>",
            "<doc><title>t</title></doc>",
            "<other/>",
        ] {
            feed_both(&mut ib, &mut mf, xml);
        }
    }

    #[test]
    fn equivalent_queries_share_one_group() {
        let queries: Vec<Query> = ["/a[b and c]/d", "/a[c and b]/d", "/a[b and c and b]/d"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        assert_eq!(ib.group_count(), 1, "commutative reorderings share a group");
        for e in &fx_xml::parse("<a><c/><b/><d/></a>").unwrap() {
            ib.process(e);
        }
        assert_eq!(ib.results(), vec![Some(true); 3]);
        assert_eq!(ib.matching_queries(), vec![0, 1, 2]);
    }

    #[test]
    fn non_activated_prefixes_cost_no_instances() {
        let (mut ib, _) = bank(&[
            "/site/regions/asia/item[price > 10]",
            "/site/regions/europe/item[price > 10]",
            "/site/regions/africa/item[price > 10]",
        ]);
        let xml = format!(
            "<site><regions><asia>{}</asia></regions></site>",
            "<item><price>50</price></item>".repeat(20)
        );
        for e in &fx_xml::parse(&xml).unwrap() {
            ib.process(e);
        }
        assert_eq!(
            ib.results(),
            vec![Some(true), Some(false), Some(false)],
            "verdicts"
        );
        // Only the asia group ever spawned per-query state, and only one
        // of its items is open at a time.
        assert_eq!(ib.peak_live_instances(), 1);
    }

    #[test]
    fn reporting_matches_route_with_bank_indices_and_spans() {
        let srcs = ["/r/a/b", "/r/a/b[c]", "//b"];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new_reporting(&queries).unwrap();
        let compiled = queries
            .iter()
            .map(|q| CompiledQuery::compile(q).unwrap())
            .collect::<Vec<_>>();
        let mut mf = MultiFilter::from_compiled_reporting(compiled).unwrap();
        let xml = "<r><a><b><c/></b><b/></a><b/></r>";
        let mut got: Vec<Match> = Vec::new();
        let mut want: Vec<Match> = Vec::new();
        for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
            ib.process_to(&event, span, &mut got);
            mf.process_to(&event, span, &mut want);
        }
        assert_eq!(ib.results(), mf.results());
        let norm = |v: &[Match]| {
            let mut v: Vec<(usize, u64, Span)> =
                v.iter().map(|m| (m.query, m.ordinal, m.span)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&got), norm(&want), "{xml}");
        for m in &got {
            assert!(m.span.slice(xml).unwrap().starts_with("<b"), "{m:?}");
        }
    }

    #[test]
    fn nested_descendant_activations_deduplicate() {
        let queries = vec![parse_query("//a//b").unwrap()];
        let mut ib = IndexedBank::new_reporting(&queries).unwrap();
        let xml = "<a><a><b/><b/></a></a>";
        let mut got: Vec<u64> = Vec::new();
        for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
            ib.process_to(&event, span, &mut |m: Match| got.push(m.ordinal));
        }
        got.sort_unstable();
        assert_eq!(got, vec![2, 3], "each b reported exactly once");
        assert_eq!(ib.results(), vec![Some(true)]);
    }

    #[test]
    fn session_reuse_resets_per_document_state() {
        let (mut ib, mut mf) = bank(&["/r[a]", "//b[c]", "/r/a/b"]);
        feed_both(&mut ib, &mut mf, "<r><a><b/></a></r>");
        feed_both(&mut ib, &mut mf, "<x><b><c/></b></x>");
        feed_both(&mut ib, &mut mf, "<r><z/></r>");
    }

    #[test]
    fn rejects_unsupported_with_index() {
        let queries: Vec<Query> = ["/a[b]", "/a[not(b)]"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let err = IndexedBank::new(&queries).unwrap_err();
        assert_eq!(err.0, 1);
        let queries: Vec<Query> = ["/a/b", "/a/@id"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let err = IndexedBank::new_reporting(&queries).unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(err.1, UnsupportedQuery::AttributeOutput);
    }

    #[test]
    fn cross_group_equal_residuals_compile_once() {
        let srcs = [
            "/hub/asia/item[price > 5]/name",
            "/hub/europe/item[5 < price]/name",
            "/hub/africa/item[price > 5]/name",
            "/hub/asia/other",
        ];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        assert_eq!(ib.group_count(), 4, "distinct full queries stay distinct");
        assert_eq!(
            ib.residual_pool_size(),
            1,
            "the three flipped/region variants share one canonical residual form"
        );
        assert_eq!(ib.residual_builds(), 1, "exactly one build per form");
        // Heavy activation: every repeated <asia>/<europe> divergence
        // element spawns a fresh instance (none ever accepts, so the
        // decided-group short-circuit cannot kick in) — many instances,
        // zero further builds.
        let asia = "<asia><item><price>2</price><name/></item></asia>".repeat(15);
        let europe = "<europe><item><price>2</price><name/></item></europe>".repeat(10);
        let xml = format!("<hub>{asia}{europe}<asia><other/></asia></hub>");
        for e in &fx_xml::parse(&xml).unwrap() {
            ib.process(e);
        }
        assert!(
            ib.space_stats().activations >= 25,
            "{}",
            ib.space_stats().activations
        );
        assert_eq!(ib.residual_builds(), 1, "activation never compiles");
        assert_eq!(
            ib.results(),
            vec![Some(false), Some(false), Some(false), Some(true)]
        );
        // The unpooled reference compiles one remainder per group but
        // observes the same verdicts.
        let mut reference = IndexedBank::new_unpooled(&queries).unwrap();
        assert_eq!(reference.residual_builds(), 3, "one fresh build per group");
        for e in &fx_xml::parse(&xml).unwrap() {
            reference.process(e);
        }
        assert_eq!(reference.results(), ib.results());
    }

    #[test]
    fn root_and_trie_groups_share_equal_residual_forms() {
        let srcs = ["//t[u]", "/hub//t[u]"];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        assert_eq!(ib.group_count(), 2);
        assert_eq!(
            ib.residual_pool_size(),
            1,
            "a document-rooted remainder and a trie remainder with the \
             same canonical form share one compiled build"
        );
        let mut mf = MultiFilter::new(&queries).unwrap();
        for xml in [
            "<hub><t><u/></t></hub>",
            "<x><t><u/></t></x>",
            "<hub><a><t><u/></t></a></hub>",
            "<hub><t/></hub>",
        ] {
            feed_both(&mut ib, &mut mf, xml);
        }
    }

    #[test]
    fn attributed_bits_sum_exactly_to_the_bank_total() {
        let (mut ib, _) = bank(&[
            "/site/a/item[p > 1]",
            "/site/a/item[1 < p]",
            "/site/b/item[p > 1]",
            "/site/a/leaf",
            "//x[y]",
        ]);
        for xml in [
            "<site><a><item><p>2</p></item><leaf/></a><b><item><p>0</p></item></b></site>",
            "<site><a><x><y/></x></a></site>",
            "<other/>",
        ] {
            for e in &fx_xml::parse(xml).unwrap() {
                ib.process(e);
            }
        }
        let per = ib.peak_memory_bits();
        assert_eq!(
            per.iter().sum::<u64>(),
            ib.total_max_bits(),
            "attribution must be exact: {per:?}"
        );
        let stats = ib.space_stats();
        assert_eq!(stats.total_bits, ib.total_max_bits());
        assert_eq!(
            stats.residual_bits + stats.shared_trie_bits,
            stats.total_bits
        );
        assert!(stats.shared_trie_bits > 0, "the trie held records");
        assert!(stats.activations > 0 && stats.events > 0);
        assert!(stats.activation_rate() > 0.0 && stats.activation_rate() < 1.0);
        // The two equivalent queries share a group, so their attribution
        // differs by at most the 1-bit remainder.
        assert!(per[0].abs_diff(per[1]) <= 1, "{per:?}");
    }

    #[test]
    fn overlapping_same_group_instances_are_charged_together() {
        // /hub//t/x[y] on d nested <t> elements: d residual instances of
        // the *same* group are live at once (one per open <t>). The
        // group peak must charge them together — the honest equivalent
        // of one naive filter's frontier holding all d candidacies —
        // not just the largest single instance.
        let residual_bits_at = |d: usize| {
            let queries = vec![parse_query("/hub//t/x[y]").unwrap()];
            let mut ib = IndexedBank::new(&queries).unwrap();
            // Every <t> carries a *direct* <x/> child, so each of the d
            // dormant activations genuinely wakes (dormancy would
            // otherwise — correctly — never materialize the outer
            // instances, whose x can only sit deeper than one level);
            // the x carries no y, so no instance ever accepts and none
            // is short-circuited away before the peak.
            let xml = format!("<hub>{}{}</hub>", "<t><x/>".repeat(d), "</t>".repeat(d));
            for e in &fx_xml::parse(&xml).unwrap() {
                ib.process(e);
            }
            assert_eq!(ib.results(), vec![Some(false)]);
            assert_eq!(ib.peak_live_instances(), d);
            ib.space_stats().residual_bits
        };
        let one = residual_bits_at(1);
        let eight = residual_bits_at(8);
        assert!(
            eight >= 4 * one,
            "8 simultaneous instances must cost several times one: {eight} vs {one}"
        );

        // Same for the selection buffering cost: the <x> candidacy is
        // unresolved while <m>'s predicate awaits its <z/>, and with a
        // descendant residual every nested instance buffers it, so the
        // group's pending peak must count them together.
        let pending_at = |d: usize| {
            let queries = vec![parse_query("/hub//t//m[z]/x").unwrap()];
            let mut ib = IndexedBank::new_reporting(&queries).unwrap();
            let xml = format!(
                "<hub>{}<m><x/><z/></m>{}</hub>",
                "<t>".repeat(d),
                "</t>".repeat(d)
            );
            for (event, span) in fx_xml::parse_spanned(&xml).unwrap() {
                ib.process_to(&event, span, &mut |_: Match| {});
            }
            ib.peak_pending_positions()[0]
        };
        let one = pending_at(1);
        assert!(one >= 1, "the open <x> candidacy buffers: {one}");
        let six = pending_at(6);
        assert!(
            six >= 4 * one,
            "6 simultaneous instances must buffer several candidacies: {six} vs {one}"
        );
    }

    #[test]
    fn attribute_rooted_residuals_stay_dormant() {
        // /@id's residual root child is attribute-axis: unsatisfiable
        // inside any activation subtree (the virtual root has no start
        // tag), so the activation must sleep forever instead of
        // spawning the old eager instance — same verdicts, zero
        // instances.
        let (mut ib, mut mf) = bank(&["/@id", "/hub/item/@id"]);
        feed_both(&mut ib, &mut mf, r#"<hub id="3"><item id="7"/></hub>"#);
        feed_both(&mut ib, &mut mf, "<hub><item/></hub>");
        assert_eq!(
            ib.peak_live_instances(),
            1,
            "only the woken /hub residual materializes; /@id never does"
        );
    }

    #[test]
    fn subscribe_extends_a_live_bank_without_recompiling_known_forms() {
        let mut ib =
            IndexedBank::new(&[parse_query("/site/asia/item[price > 5]").unwrap()]).unwrap();
        let builds = ib.residual_builds();
        // A new prefix with an already-known canonical remainder: trie
        // grows, pool does not.
        let b = ib
            .subscribe(&parse_query("/site/europe/item[5 < price]").unwrap())
            .unwrap();
        assert_eq!(ib.residual_builds(), builds, "known form: no compile");
        assert_eq!(ib.live_subscriptions(), 2);
        // A genuinely new form compiles exactly once.
        let c = ib
            .subscribe(&parse_query("/site/asia/leaf").unwrap())
            .unwrap();
        for e in
            &fx_xml::parse("<site><europe><item><price>9</price></item></europe></site>").unwrap()
        {
            ib.process(e);
        }
        assert_eq!(ib.results()[ib.slot_of(b).unwrap()], Some(true));
        assert_eq!(ib.results()[ib.slot_of(c).unwrap()], Some(false));
        // Fresh-bank parity for the same surviving set.
        let queries: Vec<Query> = [
            "/site/asia/item[price > 5]",
            "/site/europe/item[5 < price]",
            "/site/asia/leaf",
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
        let mut fresh = IndexedBank::new(&queries).unwrap();
        for e in
            &fx_xml::parse("<site><europe><item><price>9</price></item></europe></site>").unwrap()
        {
            fresh.process(e);
        }
        assert_eq!(fresh.results(), ib.results());
    }

    #[test]
    fn unsubscribe_tombstones_and_compaction_folds_them_away() {
        let srcs = [
            "/hub/asia/item[price > 5]/name",
            "/hub/europe/item[5 < price]/name",
            "/hub/asia/other",
            "//t[u]",
        ];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        let builds = ib.residual_builds();
        let ids: Vec<SubscriptionId> = (0..4).map(|s| ib.subscription_of(s).unwrap()).collect();
        assert!(ib.unsubscribe(ids[1]));
        assert!(!ib.unsubscribe(ids[1]), "double unsubscribe is a no-op");
        assert_eq!(ib.live_subscriptions(), 3);
        assert_eq!(ib.tombstoned_slots(), 1);
        // The tombstoned query no longer matches or routes.
        let xml = "<hub><europe><item><price>9</price><name/></item></europe>\
                   <asia><other/></asia></hub>";
        for e in &fx_xml::parse(xml).unwrap() {
            ib.process(e);
        }
        assert_eq!(
            ib.matching().collect::<Vec<_>>(),
            vec![2],
            "dead slot 1 must not report"
        );
        // Compaction renumbers slots, keeps ids, recompiles nothing.
        assert!(ib.compact());
        assert_eq!(ib.len(), 3);
        assert_eq!(ib.tombstoned_slots(), 0);
        assert_eq!(ib.residual_builds(), builds, "compaction never compiles");
        assert_eq!(ib.slot_of(ids[0]), Some(0));
        assert_eq!(ib.slot_of(ids[1]), None);
        assert_eq!(ib.slot_of(ids[2]), Some(1));
        assert_eq!(ib.subscription_of(1), Some(ids[2]));
        // Verdicts of the last document survive the fold.
        assert_eq!(ib.results(), vec![Some(false), Some(true), Some(false)]);
        // The unreferenced europe remainder left the pool.
        assert!(ib.residual_pool_size() <= 2, "{}", ib.residual_pool_size());
        // And the compacted bank still evaluates like a fresh one.
        let surviving: Vec<Query> = [srcs[0], srcs[2], srcs[3]]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let mut fresh = IndexedBank::new(&surviving).unwrap();
        for xml in [
            xml,
            "<t><u/></t>",
            "<hub><asia><item><price>9</price><name/></item></asia></hub>",
        ] {
            for e in &fx_xml::parse(xml).unwrap() {
                ib.process(e);
                fresh.process(e);
            }
            assert_eq!(ib.results(), fresh.results(), "{xml}");
        }
    }

    #[test]
    fn resubscribing_a_tombstoned_form_revives_its_group() {
        let mut ib = IndexedBank::new(&[parse_query("/a/item[p]").unwrap()]).unwrap();
        let builds = ib.residual_builds();
        let first = ib.subscription_of(0).unwrap();
        assert!(ib.unsubscribe(first));
        // Same canonical form again: the tombstoned group revives —
        // no new group, no new compile.
        let again = ib.subscribe(&parse_query("/a/item[p]").unwrap()).unwrap();
        assert_ne!(again, first, "ids are never reused");
        assert_eq!(ib.group_count(), 1);
        assert_eq!(ib.residual_builds(), builds);
        for e in &fx_xml::parse("<a><item><p/></item></a>").unwrap() {
            ib.process(e);
        }
        assert_eq!(
            ib.matching().collect::<Vec<_>>(),
            vec![ib.slot_of(again).unwrap()]
        );
    }

    #[test]
    fn automatic_compaction_honours_the_policy() {
        let mut ib = IndexedBank::new(&[]).unwrap();
        let keep = ib.subscribe(&parse_query("/keep/me").unwrap()).unwrap();
        let mut churned = Vec::new();
        for i in 0..20 {
            let q = parse_query(&format!("/fam{i}/item[p > {i}]")).unwrap();
            churned.push(ib.subscribe(&q).unwrap());
        }
        let builds = ib.residual_builds();
        let mut churned = churned.into_iter();
        for id in churned.by_ref().take(MIN_TOMBSTONES - 1) {
            ib.unsubscribe(id);
        }
        // 15 of 21 slots: more than half, but below the floor of 16.
        assert_eq!(MIN_TOMBSTONES, 16);
        assert_eq!((ib.compactions(), ib.tombstoned_slots()), (0, 15));
        // The 16th tombstone crosses both (16 ≥ 16 and 2·16 > 21) and
        // auto-compacts; the last four stay below it.
        for id in churned {
            ib.unsubscribe(id);
        }
        assert_eq!(ib.compactions(), 1, "threshold crossed ⇒ auto-compact");
        assert_eq!(ib.tombstoned_slots(), 4);
        // An explicit compact ignores the threshold and folds the rest.
        assert!(ib.compact());
        assert_eq!(ib.tombstoned_slots(), 0);
        assert_eq!(ib.len(), 1);
        assert_eq!(ib.slot_of(keep), Some(0));
        assert_eq!(ib.residual_builds(), builds, "churn never recompiles");
        assert_eq!(
            ib.residual_pool_size(),
            0,
            "every churned remainder released its pool entry"
        );
    }

    #[test]
    fn mid_document_churn_is_safe_and_lands_next_document() {
        let (mut ib, mut mf) = bank(&["/r[a]", "//b[c]"]);
        let events = fx_xml::parse("<r><a/><b><c/></b></r>").unwrap();
        for (n, e) in events.iter().enumerate() {
            ib.process(e);
            mf.process(e);
            if n == 2 {
                // Mid-document: subscribe a new query and withdraw an
                // existing one. Neither may disturb the in-flight
                // evaluation of the untouched query.
                ib.subscribe(&parse_query("/r/a").unwrap()).unwrap();
                let id = ib.subscription_of(1).unwrap();
                ib.unsubscribe(id);
            }
        }
        assert_eq!(ib.results()[0], Some(true));
        // Next document, everything is in effect.
        let survivors = ["/r[a]", "/r/a"];
        let (mut fresh, _) = bank(&survivors);
        for e in &fx_xml::parse("<r><a/></r>").unwrap() {
            ib.process(e);
            fresh.process(e);
        }
        let by_id: Vec<Option<bool>> = (0..ib.len())
            .filter(|&s| ib.subscription_of(s).is_some())
            .map(|s| ib.results()[s])
            .collect();
        assert_eq!(by_id, fresh.results());
    }

    /// Every stack entry is reachable from exactly its own code's chain,
    /// chains run newest to oldest, and the live-dormant count is the
    /// number of live entries.
    fn assert_chains_consistent(ib: &IndexedBank) {
        let walk = |chains: &Chains, prev_of: &dyn Fn(u32) -> (u32, u32)| {
            let mut seen = 0;
            for (slot, &head) in chains.0.iter().enumerate() {
                let mut at = head;
                while at != NIL {
                    let (code, prev) = prev_of(at);
                    assert_eq!(Chains::slot(code), slot, "entry {at} on a foreign chain");
                    assert!(prev == NIL || prev < at, "chains run newest to oldest");
                    seen += 1;
                    at = prev;
                }
            }
            seen
        };
        let on_record_chains = walk(&ib.run.record_chains, &|at| {
            let r = ib.run.records[at as usize];
            (r.code, r.prev)
        });
        assert_eq!(on_record_chains, ib.run.records.len());
        let on_wake_chains = walk(&ib.run.wake_chains, &|at| {
            let l = ib.run.wake_links[at as usize];
            (l.code, l.prev)
        });
        assert_eq!(on_wake_chains, ib.run.wake_links.len());
        assert!(ib.run.records.windows(2).all(|w| w[0].level <= w[1].level));
        assert!(ib
            .run
            .dormant
            .windows(2)
            .all(|w| w[0].root_level <= w[1].root_level && w[0].links <= w[1].links));
        let live = ib
            .run
            .dormant
            .iter()
            .filter(|d| ib.run.is_live(&ib.index, d))
            .count();
        assert_eq!(ib.run.dormant_live, live);
    }

    /// Feeds `xml` to both banks event by event, checking the index
    /// structure after every event and the verdicts at the end.
    fn feed_checked(ib: &mut IndexedBank, mf: &mut MultiFilter, xml: &str) {
        for e in &fx_xml::parse(xml).unwrap() {
            ib.process(e);
            mf.process(e);
            assert_chains_consistent(ib);
        }
        assert_eq!(ib.results(), mf.results(), "{xml}");
    }

    #[test]
    fn wildcard_and_named_records_interleave_on_one_path() {
        let (mut ib, mut mf) = bank(&[
            "/hub/*/x",
            "/hub/a/x",
            "/hub/*/x[y]",
            "//a//*//b",
            "//a//*//b[c]",
            "//*/a",
        ]);
        for xml in [
            "<hub><a><x><y/></x></a><b><x/></b></hub>",
            "<hub><q><x/></q></hub>",
            "<a><a><a><b><c/></b></a></a></a>",
            "<a><k><a><k><a><k><b><c/></b></k></a></k></a></k></a>",
            "<r><a><b/></a></r>",
        ] {
            feed_checked(&mut ib, &mut mf, xml);
        }
    }

    #[test]
    fn unknown_names_walk_the_wildcard_chains_only() {
        // No wildcard anywhere: a document outside the vocabulary finds
        // every chain it asks for empty.
        let (mut ib, mut mf) = bank(&["/hub/a/x", "//a/b[c]", "/hub[k]"]);
        feed_checked(&mut ib, &mut mf, "<p><q><r/><s>t</s></q></p>");
        assert_eq!(ib.trie_records_visited(), 0);
        assert_eq!(ib.dormant_entries_checked(), 0);
        // One wildcard record (`/*` at level 0) and one wildcard wake
        // spec (`//*[..]`'s document-rooted activation): each start tag
        // sees exactly those — 4 tags; the record `/*/q` pushes under
        // `<p>` is named, so `<q>` finds it only by being known.
        let (mut ib, mut mf) = bank(&["/*/hub", "//*[hub]", "/hub/a"]);
        feed_checked(&mut ib, &mut mf, "<p><q><r/><s>t</s></q></p>");
        assert_eq!(ib.trie_records_visited(), 4);
        // The `//*[hub]` activation wakes on the first tag; its
        // tombstone stays chained until its element — the document —
        // closes, so the other three tags still check (and skip) it.
        assert_eq!(ib.dormant_entries_checked(), 4);
        assert_eq!(ib.space_stats().activations, 1);
    }

    #[test]
    fn mid_document_unsubscribe_leaves_the_index_consistent() {
        // Slot 0 holds dormant activations (nested, under `//a`); slot 1
        // is the only terminal of the `/r/a/t` records; slot 2 survives.
        let srcs = ["//a/b[c]", "/r/a/t", "//a[t]"];
        let xml = "<r><a><a><t/><b><c/></b></a><t/></a><a><t/><b><c/></b></a></r>";
        for reporting in [false, true] {
            for cut in 0..fx_xml::parse(xml).unwrap().len() {
                let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
                let mut ib = IndexedBank::build(&queries, reporting, true, Default::default())
                    .map_err(|(i, _)| i)
                    .unwrap();
                for (n, e) in fx_xml::parse(xml).unwrap().iter().enumerate() {
                    if n == cut {
                        for slot in [0, 1] {
                            assert!(ib.unsubscribe(ib.subscription_of(slot).unwrap()));
                            assert_chains_consistent(&ib);
                        }
                    }
                    ib.process(e);
                    assert_chains_consistent(&ib);
                }
                assert_eq!(ib.results()[2], Some(true), "cut {cut}");
                // The next document reads like a fresh bank's.
                let (mut fresh, _) = bank(&srcs[2..]);
                for e in &fx_xml::parse(xml).unwrap() {
                    ib.process(e);
                    fresh.process(e);
                }
                assert_eq!(ib.results()[2], fresh.results()[0], "cut {cut}");
                assert_eq!(ib.space_stats().total_bits, ib.peak_memory_bits()[2]);
            }
        }
    }

    #[test]
    fn compact_and_partition_after_an_aborted_document() {
        let srcs = ["/r/a/b[c]", "//a//b", "/r[k]", "/r/*/b"];
        let good = "<r><a><b><c/></b></a><k/></r>";
        let reading = |ib: &mut IndexedBank| {
            for e in &fx_xml::parse(good).unwrap() {
                ib.process(e);
            }
            assert_chains_consistent(ib);
            let live: Vec<_> = (0..ib.len())
                .filter(|&s| ib.subscription_of(s).is_some())
                .map(|s| (ib.results()[s], ib.peak_memory_bits()[s]))
                .collect();
            (live, ib.space_stats().total_bits)
        };
        let (mut fresh, _) = bank(&srcs[..3]);
        let want = reading(&mut fresh);

        // The document stops inside `<a>`: records, a dormant
        // activation and a live instance are all left behind.
        let (mut ib, _) = bank(&srcs);
        let events = fx_xml::parse(good).unwrap();
        for e in &events[..3] {
            ib.process(e);
        }
        assert!(
            !ib.run.records.is_empty() && ib.run.dormant_live > 0 && !ib.run.instances.is_empty()
        );
        ib.unsubscribe(ib.subscription_of(3).unwrap());
        assert!(!ib.compact(), "mid-document: compaction waits");
        // Tombstoned trie linkage still costs records until compaction:
        // verdicts agree now, every bit of the accounting afterwards.
        let verdicts = |r: &(Vec<(Option<bool>, u64)>, u64)| -> Vec<_> {
            r.0.iter().map(|&(v, _)| v).collect()
        };
        assert_eq!(verdicts(&reading(&mut ib)), verdicts(&want), "tombstoned");
        assert!(ib.compact());
        assert_chains_consistent(&ib);
        assert_eq!(reading(&mut ib), want, "compacted");
    }

    #[test]
    fn subscribing_a_new_symbol_grows_the_chain_tables() {
        let (mut ib, _) = bank(&["/r/a"]);
        let feed = |ib: &mut IndexedBank, xml: &str| {
            for e in &fx_xml::parse(xml).unwrap() {
                ib.process(e);
            }
            ib.results()
        };
        let xml = "<r><a/><fresh><newer/></fresh></r>";
        assert_eq!(feed(&mut ib, xml), [Some(true)]);
        let (records, wakes) = (ib.run.record_chains.0.len(), ib.run.wake_chains.0.len());
        ib.subscribe(&parse_query("/r/fresh").unwrap()).unwrap();
        ib.subscribe(&parse_query("/r/fresh[newer]").unwrap())
            .unwrap();
        assert!(ib.run.record_chains.0.len() > records, "a head for `fresh`");
        assert!(ib.run.wake_chains.0.len() > wakes, "a head for `newer`");
        assert_eq!(feed(&mut ib, xml), [Some(true); 3]);
        assert_chains_consistent(&ib);
    }

    /// A query subscribed on a live bank takes effect at the next
    /// document with no call in between, on the reader path (the
    /// lookup-only parser's memo held `gadget` as unknown) and on the
    /// owned-event path (the bank's own memo did).
    #[test]
    fn late_subscription_needs_no_announcement() {
        let xml = "<r><gadget/></r>";
        let late = parse_query("//gadget").unwrap();

        let mut ib = IndexedBank::new_reporting(&[]).unwrap();
        let mut parser = fx_xml::StreamingParser::with_symbols(ib.symbols().clone()).lookup_only();
        let mut routed: Vec<Match> = Vec::new();
        for subscribe in [false, true] {
            if subscribe {
                ib.subscribe(&late).unwrap();
            }
            parser.reset();
            parser
                .drive_batched(xml.as_bytes(), &mut |b| ib.process_batch_to(b, &mut routed))
                .unwrap();
        }
        assert_eq!((ib.results(), routed.len()), (vec![Some(true)], 1));

        let mut ib = IndexedBank::new_reporting(&[]).unwrap();
        let (events, mut routed) = (fx_xml::parse(xml).unwrap(), Vec::<Match>::new());
        let mut feed = |ib: &mut IndexedBank| {
            for e in &events {
                ib.process_to(e, Span::EMPTY, &mut routed);
            }
        };
        feed(&mut ib);
        ib.subscribe(&late).unwrap();
        feed(&mut ib);
        assert_eq!((ib.results(), routed.len()), (vec![Some(true)], 1));
    }

    #[test]
    fn attribute_chains_stay_with_the_residual() {
        // /hub/item/@id: the @id resolves from <item>'s start tag, so the
        // sharable prefix must stop at /hub.
        let (mut ib, mut mf) = bank(&["/hub/item/@id", "/hub/item[@id = 7]"]);
        feed_both(&mut ib, &mut mf, r#"<hub><item id="7"/></hub>"#);
        feed_both(&mut ib, &mut mf, r#"<hub><item id="8"/></hub>"#);
        feed_both(&mut ib, &mut mf, "<hub><item/></hub>");
    }
}
