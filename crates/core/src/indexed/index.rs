//! The index — *what the subscriptions are* — and the three churn calls
//! that are its only writers; everything else reads it as `&Index`.

use super::chains::{sym_code, WILDCARD_CODE};
use super::run::GroupDoc;
use super::{CompiledResidual, IndexedBank, SubscriptionId};
use crate::filter::{CompiledQuery, UnsupportedQuery};
use crate::space::bits_for;
use fx_xml::Symbols;
use fx_xpath::canonical::{residual_query, CanonicalForm};
use fx_xpath::{Axis, NodeTest, Query};
use std::collections::HashMap;
use std::sync::Arc;

/// One node of the shared-prefix trie: a canonical (axis, node-test)
/// step. All queries whose canonical chains run through this step share
/// this node — and thus share the per-event work of tracking it.
#[derive(Debug, Clone)]
pub(super) struct TrieNode {
    pub(super) axis: Axis,
    ntest: NodeTest,
    /// The node test's dense dispatch code ([`sym_code`]): the open
    /// frontier records inline it and are chained under it, so a start
    /// tag's walk touches its own name's records only — no trie
    /// chasing, no string hashing or comparison.
    pub(super) code: u32,
    pub(super) children: Vec<u32>,
    /// Groups whose entire chain ends here: a predicate-free linear
    /// query. An activation of this node *is* a match; no per-query
    /// state is ever needed.
    pub(super) terminal: Vec<u32>,
    /// Groups that diverge here: activation spawns one residual
    /// instance per group, rooted at the activating element.
    pub(super) residual: Vec<u32>,
}

/// [`IndexedBank::unsubscribe`] folds tombstoned slots away once there
/// are at least this many and they fill more than half the slot table.
/// Compaction costs one pass over the surviving subscriptions (no
/// recompilation), so waiting for tombstones to outnumber the live slots
/// keeps it amortized O(1) slot moves per unsubscribe.
pub(super) const MIN_TOMBSTONES: usize = 16;

/// A set of bank queries with identical canonical form, evaluated once.
#[derive(Debug, Clone)]
pub(super) struct Group {
    /// Bank indices (registration order) sharing this canonical form.
    /// Empty for a **tombstoned** group (every member unsubscribed):
    /// the group's trie linkage stays in place until compaction, but
    /// every activation site skips it.
    pub(super) members: Vec<usize>,
    /// Index into the bank's [`CompiledResidual`] pool of the compiled
    /// remainder below the shared prefix (`None` for terminal groups).
    /// Groups with canonically-equal remainders share one pool entry,
    /// even across different trie paths.
    pub(super) residual: Option<u32>,
    /// Whether the shared prefix contains a descendant-axis step, in
    /// which case nested activations can confirm the same output element
    /// twice and reported ordinals must be deduplicated per document.
    pub(super) needs_dedup: bool,
    /// Whether the sharable prefix is empty (a `root_groups` member):
    /// such queries hold no trie state, so the shared-trie bits are not
    /// attributed to them.
    pub(super) document_rooted: bool,
}

/// The wake-up conditions of a residual form's dormant activations:
/// one `(dispatch code, is-descendant)` pair per root-child record of
/// the compiled residual. A start event at relative depth `rel` inside
/// the activation subtree fires iff some pair matches the event's name
/// code (or is a wildcard) and either is descendant-axis or `rel == 0`.
#[derive(Debug, Clone)]
pub(super) struct ResidualTriggers {
    pub(super) specs: Vec<(u32, bool)>,
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
pub(super) struct Index {
    pub(super) trie: Vec<TrieNode>,
    pub(super) groups: Vec<Group>,
    /// The shared-residual pool: one entry per **canonical residual
    /// form**, `Arc`-shared by every group and activation that needs it.
    pub(super) residuals: Vec<CompiledResidual>,
    /// Per pool entry, the wake-up specs of its dormant activations.
    pub(super) residual_triggers: Vec<ResidualTriggers>,
    /// Per pool entry, the number of live (non-tombstoned) groups
    /// referencing it; an entry at zero keeps only its compiled `Arc`
    /// (the run drops its filter free-list on the spot) until a
    /// compaction pass drops the entry itself.
    pub(super) residual_uses: Vec<u32>,
    /// Number of [`CompiledResidual`] builds this bank performed: one
    /// per canonical residual form first subscribed, and flat across
    /// any amount of processing *and churn over known forms*
    /// (activations, unsubscribes and compactions only move refcounts).
    pub(super) built_residuals: u64,
    /// Groups with an empty sharable prefix, spawned at `StartDocument`
    /// as document-rooted instances (the naive-bank degenerate case).
    pub(super) root_groups: Vec<u32>,
    /// Bank index (slot) → group index.
    pub(super) query_group: Vec<u32>,
    /// Canonical query key → group index: the incremental grouping
    /// table [`IndexedBank::subscribe`] dedups into.
    group_of_key: HashMap<String, u32>,
    /// Canonical residual form → pool index: the cross-group dedup.
    pool_of_key: HashMap<String, u32>,
    /// Subscription id → current slot, for every live subscription.
    pub(super) subs: HashMap<u64, usize>,
    /// Slot → subscription id (stale for tombstoned slots).
    pub(super) slot_sub: Vec<u64>,
    /// Slot liveness: `false` marks a tombstone awaiting compaction.
    pub(super) slot_alive: Vec<bool>,
    /// Slot → whether it is a live trie sharer: alive, and its group's
    /// prefix lives in the trie (not `document_rooted`). The column
    /// [`IndexedBank::peak_memory_bits`] splits the trie's bits over.
    pub(super) trie_sharer: Vec<bool>,
    /// Slot → the subscribed query, retained so compaction can rebuild
    /// the index without consulting the caller (and without
    /// recompiling: compiled forms are carried over by canonical key).
    slot_query: Vec<Query>,
    /// Next subscription id (monotone; never reused).
    next_sub: u64,
    /// Number of tombstoned slots (the automatic compaction trigger).
    pub(super) dead_slots: usize,
    /// Number of compaction passes performed.
    pub(super) compactions: u64,
    /// The bank's shared symbol table: trie node tests and every
    /// compiled residual resolve against it, so an event interned
    /// against it — by a parser sharing the table, or by whoever holds
    /// the event owned — serves the whole bank.
    pub(super) symbols: Arc<Symbols>,
    pub(super) reporting: bool,
    /// Whether residuals share the canonical-form pool (false only for
    /// the unpooled differential-testing reference).
    pooled: bool,
    /// Bits of one trie-node reference, `bits_for(|trie| - 1)`,
    /// refreshed whenever the trie changes.
    pub(super) trie_ref_bits: u32,
}

impl Index {
    /// An index of no queries; they arrive through
    /// [`Index::insert_slot`].
    pub(super) fn empty(reporting: bool, pooled: bool, symbols: Arc<Symbols>) -> Index {
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
            trie_sharer: Vec::new(),
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
        self.trie_sharer
            .push(!self.groups[g as usize].document_rooted);
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
        index.trie_sharer[slot] = false;
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
}
