//! The run — *where the document is* — and its event handlers, dormancy
//! included: Theorem 8.8's work tape, over the read-only [`Index`].

use super::chains::{Chains, NIL, WILDCARD_CODE};
use super::index::Index;
use crate::evaluator::sealed::Horizoned;
use crate::filter::StreamFilter;
use crate::reporter::{Match, MatchSink};
use crate::space::bits_for;
use fx_xml::{AttrBuf, Span, Sym, SymEvent};
use fx_xpath::Axis;
use std::collections::HashSet;
use std::sync::Arc;

/// A live residual evaluation: one query group below one activation.
///
/// An instance is handed only the events that can move it: a tag its
/// residual names, text while it buffers. The rest leave its filter
/// behind the stream, with `seen` and `deepest` saying how far; it
/// catches up through [`Horizoned::sync`] just before it next matters —
/// its next delivery, its retirement, or the removal of any instance of
/// its group (a group's live bit sum only falls when an instance leaves,
/// so catching up every one of them first keeps the group's peaks
/// exact).
#[derive(Debug, Clone)]
pub(super) struct Instance {
    group: u32,
    /// The group's residual-pool id: its compiled form says which names
    /// move the instance, and its free-list takes the filter back.
    residual: u32,
    filter: StreamFilter,
    /// The bank's event count as of the last event the filter took or
    /// was caught up through.
    seen: u64,
    /// The deepest document level the stream has reached since then.
    deepest: u32,
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

/// One open occurrence of a trie path in the shared frontier segment.
/// The node test's dispatch code and axis are denormalized out of the
/// trie and the record is threaded onto its code's chain ([`Chains`]):
/// a start tag walks the chain of its own name and the wildcard chain —
/// integer compares over 20-byte records, no trie chasing — and never
/// sees a record its name cannot fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct TrieRec {
    /// The trie node this record tracks.
    node: u32,
    /// Insertion level (exact-match level for child-axis nodes, minimum
    /// level for descendant-axis nodes).
    pub(super) level: u32,
    /// The node's dispatch code (`sym_code`).
    pub(super) code: u32,
    /// The previous (older) record with the same `code`, or [`NIL`].
    pub(super) prev: u32,
    /// Whether the node's axis is `Descendant`.
    descendant: bool,
}

/// A *dormant* activation: a divergence point was reached for `group`
/// at `root_level`, but no residual instance exists yet. Until some
/// event inside the activation subtree actually selects one of the
/// residual's root records (see `ResidualTriggers`), an instance
/// would provably hold nothing beyond its initial frontier records —
/// so the bank holds this entry instead of a live filter, chained (one
/// [`WakeLink`] per trigger spec) under each dispatch code that can
/// wake it: a start tag checks only the entries its name or a wildcard
/// spec can fire. Activations whose subtree never exhibits a matching
/// child retire without the instance ever existing.
#[derive(Debug, Clone, Copy)]
pub(super) struct Dormant {
    group: u32,
    /// Document level of the activating element; `-1` for
    /// document-rooted groups.
    pub(super) root_level: i64,
    /// Index of this entry's first [`WakeLink`] (its links run to the
    /// next entry's, or the end of the link stack).
    pub(super) links: u32,
    /// Cleared — a tombstone until the entry pops — once the entry
    /// fired or its group's state was dropped.
    live: bool,
}

/// One registration of a [`Dormant`] entry under a dispatch code that
/// can wake it, chained per code like [`TrieRec`].
#[derive(Debug, Clone, Copy)]
pub(super) struct WakeLink {
    /// Index of the entry in `dormant`.
    entry: u32,
    pub(super) code: u32,
    /// The previous (older) link with the same `code`, or [`NIL`].
    pub(super) prev: u32,
    /// Whether the spec fires at any depth (else only on children of
    /// the activating element).
    descendant: bool,
}

/// One canonical group's per-document state: default until the group
/// is `touched`, and reset at `StartDocument` only if it was.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct GroupDoc {
    /// Verdict accumulator (monotone within a document).
    pub(super) accepted: bool,
    /// Whether the group is on the bank's `touched` list.
    pub(super) touched: bool,
    /// Live dormant activations of this group.
    pub(super) dormant: u32,
    /// Peak filter bits: the maximum, over time, of the *sum* of the
    /// group's simultaneously-live instance bits — overlapping
    /// activations (nested descendant prefixes) are charged together,
    /// exactly as one naive filter's frontier holds all simultaneous
    /// candidates at once.
    pub(super) peak_bits: u64,
    /// Bits currently live (sum of `noted_bits` over live instances).
    pub(super) live_bits: u64,
    /// Peak pending (unresolved-candidate) positions, summed over
    /// simultaneously-live instances like `peak_bits`.
    pub(super) peak_pending: usize,
    /// Pending positions currently live (sum of `noted_pending`).
    pub(super) live_pending: usize,
}

/// *Where the document is*: the half of an `IndexedBank` the event
/// handlers write — Theorem 8.8's work tape, with the [`Index`] as the
/// read-only input. Its per-group, per-residual and per-name tables are
/// sized by [`Run::fit`] in the churn call that grew the index.
#[derive(Debug, Clone, Default)]
pub(super) struct Run {
    /// The shared frontier segment: one record per open occurrence of a
    /// trie path. A **stack** sorted by level — a start tag at level
    /// `l` pushes level `l + 1` only, an end tag pops the tail above
    /// the new level — each record also on its dispatch code's chain.
    pub(super) records: Vec<TrieRec>,
    /// Heads of `records`' per-code chains.
    pub(super) record_chains: Chains,
    /// Dormant activations (see [`Dormant`]): divergence points reached
    /// whose residual instances have not been woken yet. A stack sorted
    /// by `root_level`: the entries an element registers are the tail
    /// its end tag pops (woken ones stay as tombstones until then).
    pub(super) dormant: Vec<Dormant>,
    /// The wake-up registrations of `dormant`'s entries, pushed and
    /// popped in lock-step with them.
    pub(super) wake_links: Vec<WakeLink>,
    /// Heads of `wake_links`' per-code chains.
    pub(super) wake_chains: Chains,
    /// Number of live entries in `dormant` ([`Run::is_live`]): what
    /// the shared-segment accounting charges.
    pub(super) dormant_live: usize,
    pub(super) instances: Vec<Instance>,
    /// Retired residual-instance filters, pooled per compiled-residual
    /// id: spawning an activation pops one (metrics reset, state reset
    /// by its `StartDocument`) instead of allocating fresh frontier and
    /// scratch buffers — the instance churn of a busy document touches
    /// the allocator only until the pool warms.
    pub(super) free_filters: Vec<Vec<StreamFilter>>,
    /// Reused per-start-tag scratch: first the dormant entries the tag
    /// wakes, then the trie nodes it activates.
    scratch_activated: Vec<u32>,
    /// Reused attribute buffer an `EventBatch` replays through.
    pub(super) attr_scratch: AttrBuf,
    current_level: u32,
    element_ordinal: u64,
    /// Terminal activations awaiting their close tag (for the span):
    /// `(level, group, ordinal, span start)`, stack-ordered.
    open_terminals: Vec<(u32, u32, u64, u64)>,
    /// Per-group verdicts and space peaks of the current document
    /// (parallel to the index's groups).
    pub(super) doc: Vec<GroupDoc>,
    /// The `(group, ordinal)` pairs already reported this document, for
    /// groups with `needs_dedup` — no other group ever touches it.
    emitted: HashSet<(u32, u64)>,
    /// The groups whose `doc` entry may have left its default: the only
    /// ones the next `StartDocument` resets.
    pub(super) touched: Vec<u32>,
    /// Whether `EndDocument` has been seen for the current document.
    pub(super) finished: bool,

    // -- statistics ---------------------------------------------------------
    /// Peak number of shared trie records.
    pub(super) peak_records: usize,
    /// Peak logical size of the shared frontier segment, in bits — one
    /// row per record, `log|trie| + log d + O(1)` bits per row (the
    /// Theorem 8.8 units of [`crate::SpaceStats`]).
    pub(super) peak_trie_bits: u64,
    /// Peak number of simultaneously live residual instances.
    pub(super) peak_instances: usize,
    /// Total residual instances spawned (the activation count).
    pub(super) activations: u64,
    /// Total events processed.
    pub(super) events: u64,
    /// Total trie records visited by start tags' chain walks.
    pub(super) records_visited: u64,
    /// Total dormant wake-up registrations checked by start tags.
    pub(super) dormant_checked: u64,
    /// Total events delivered to residual instances, wake events
    /// included.
    pub(super) instance_feeds: u64,
}

impl Run {
    /// A run at the start of its first document, sized for `index`.
    pub(super) fn new(index: &Index) -> Run {
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
    pub(super) fn fit(&mut self, index: &Index) {
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
        // No catch-up: what is left here belongs to a cut document, whose
        // groups' peaks the caller's reset discards.
        while !self.instances.is_empty() {
            self.remove_instance(self.instances.len() - 1);
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

    /// Group `g` lost its last member (`IndexedBank::unsubscribe`):
    /// drops its live per-document state — open residual instances,
    /// dormant activations and pending terminal spans (a mid-document
    /// unsubscribe simply stops evaluating) — and its history.
    pub(super) fn drop_group(&mut self, index: &Index, g: usize) {
        // The group's instances leave without catching up: the peaks
        // they would fold are wiped below.
        let mut i = 0;
        while i < self.instances.len() {
            if self.instances[i].group as usize == g {
                self.remove_instance(i);
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

    pub(super) fn process(
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
            SymEvent::Text { .. } => {
                let level = self.current_level;
                self.feed_instances(index, event, span, level as i64, level, sink)
            }
            SymEvent::EndDocument => self.end_document(index),
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
        self.feed_instances(index, event, span, lvl as i64, lvl + 1, sink);
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
        self.feed_instances(index, event, span, new_level as i64, new_level, sink);

        // Retire instances rooted at the closing element — at the
        // position before this tag, which is what a catch-up runs to.
        let mut i = 0;
        while i < self.instances.len() {
            if self.instances[i].root_level == new_level as i64 {
                self.retire_instance(index, i);
            } else {
                i += 1;
            }
        }
        self.current_level = new_level;

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

    fn end_document(&mut self, index: &Index) {
        while !self.instances.is_empty() {
            self.retire_instance(index, 0);
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
    /// (see `triggers_for`), so skipping their triggers loses nothing.
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
    pub(super) fn is_live(&self, index: &Index, d: &Dormant) -> bool {
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
            self.feed_one(index, idx, event, span, lvl + 1, sink);
        }
    }

    /// The one way in for a residual instance: an `Arc` bump on the
    /// group's pooled `CompiledResidual` plus empty per-instance
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
            .expect("only residual groups spawn instances");
        // A pooled filter needs no scrubbing: the `StartDocument` below
        // restarts its statistics along with its frontier.
        let mut filter = self.free_filters[rid as usize].pop().unwrap_or_else(|| {
            let compiled = Arc::clone(&index.residuals[rid as usize].compiled);
            if index.reporting {
                StreamFilter::from_shared_reporting(compiled)
                    .expect("a reporting bank checks reporting support at subscribe")
            } else {
                StreamFilter::from_shared(compiled)
            }
        });
        filter.process_sym_to(SymEvent::StartDocument, Span::EMPTY, 0, &mut |_: Match| {});
        if fast_forward > 0 {
            filter.fast_forward(fast_forward);
        }
        let i = self.instances.len();
        // Up to date through the event before the one that wakes it: the
        // caller delivers that one next, and folds what it grew by.
        self.instances.push(Instance {
            group: g,
            residual: rid,
            filter,
            seen: self.events - 1,
            deepest: self.current_level,
            ordinal_offset: self.element_ordinal,
            root_level,
            progress: 0,
            noted_bits: 0,
            noted_pending: 0,
        });
        self.activations += 1;
        self.peak_instances = self.peak_instances.max(self.instances.len());
        i
    }

    /// Feeds `event` — an event at level `threshold` that leaves the
    /// document at level `after` — to the live instances rooted strictly
    /// above `threshold` that it can move: a tag their residual names
    /// (and, for a document-rooted instance, the root's start tag: its
    /// early-reject decision), text while they buffer. The rest only
    /// note how deep the document went. Matches are routed, and in
    /// filtering mode an instance whose group already accepted leaves.
    /// Out of line behind the emptiness test, so a bank with no live
    /// instance pays one compare per event.
    #[inline]
    fn feed_instances(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        span: Span,
        threshold: i64,
        after: u32,
        sink: &mut dyn MatchSink,
    ) {
        if !self.instances.is_empty() {
            self.feed_live(index, event, span, threshold, after, sink);
        }
    }

    /// [`Run::feed_instances`] over a non-empty instance list.
    #[inline(never)]
    fn feed_live(
        &mut self,
        index: &Index,
        event: SymEvent<'_>,
        span: Span,
        threshold: i64,
        after: u32,
        sink: &mut dyn MatchSink,
    ) {
        let mut i = 0;
        while i < self.instances.len() {
            let inst = &mut self.instances[i];
            if !index.reporting && self.doc[inst.group as usize].accepted {
                // The group already accepted: its verdict cannot change,
                // so the instance is pure overhead. Same rationale as
                // MultiFilter's decided-filter skip.
                let g = inst.group;
                self.catch_up_group(g);
                self.remove_instance(i);
                continue;
            }
            inst.deepest = inst.deepest.max(after);
            let names = |name| {
                index.residuals[inst.residual as usize]
                    .compiled
                    .mentions(name)
            };
            let moves = threshold > inst.root_level
                && match event {
                    SymEvent::StartElement { name, .. } => {
                        (threshold == 0 && inst.root_level < 0) || names(name)
                    }
                    SymEvent::EndElement { name } => names(name),
                    // Text: only an open value-tested leaf takes it.
                    _ => inst.filter.is_buffering(),
                };
            if !moves || !self.feed_one(index, i, event, span, after, sink) {
                i += 1;
            }
        }
    }

    /// Brings instance `i` up to the event before the current one,
    /// through [`Horizoned::sync`], if it fell behind: the stream's
    /// level and ordinal made relative to the instance's root, and the
    /// deepest level it passed. Leaves the fold to the caller.
    fn catch_up(&mut self, i: usize) {
        let upto = self.events - 1;
        let inst = &mut self.instances[i];
        if inst.seen < upto {
            // Floored for a document cut off inside the instance's root.
            let rel = |level: u32| (level as i64 - inst.root_level - 1).max(0) as usize;
            inst.filter.sync(
                rel(self.current_level),
                self.element_ordinal - inst.ordinal_offset,
                upto - inst.seen,
                rel(inst.deepest),
            );
            inst.seen = upto;
            inst.deepest = self.current_level;
        }
    }

    /// Catches up every live instance of group `g` and folds what each
    /// grew by: called just before one of them leaves, so the group's
    /// peaks see all of them at their fullest.
    fn catch_up_group(&mut self, g: u32) {
        for i in 0..self.instances.len() {
            if self.instances[i].group == g {
                self.catch_up(i);
                self.fold_growth(i);
            }
        }
    }

    /// Feeds `event`, which leaves the document at level `after`, to
    /// instance `i` — caught up first — with full bookkeeping (match
    /// routing, decided short-circuit, space-delta folding). Returns
    /// `true` when the instance was removed (its slot now holds the
    /// previous last instance, swap-remove style).
    fn feed_one(
        &mut self,
        index: &Index,
        i: usize,
        event: SymEvent<'_>,
        span: Span,
        after: u32,
        sink: &mut dyn MatchSink,
    ) -> bool {
        self.catch_up(i);
        debug_assert_eq!(self.instances[i].seen + 1, self.events, "one event behind");
        self.instance_feeds += 1;
        let Run {
            instances,
            doc,
            emitted,
            events,
            ..
        } = self;
        let inst = &mut instances[i];
        let (g, offset) = (inst.group as usize, inst.ordinal_offset);
        // What the instance confirms, its local ordinals made global.
        inst.filter.process_sym_to(event, span, 0, &mut |m: Match| {
            emit(index, doc, emitted, g, m.ordinal + offset, m.span, sink)
        });
        (inst.seen, inst.deepest) = (*events, after);
        let mut decided = None;
        if !index.reporting {
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
        let g = self.instances[i].group;
        if accept {
            self.accept(index, g as usize);
        }
        self.catch_up_group(g);
        self.remove_instance(i);
        true
    }

    /// Sends `EndDocument` (which confirms no match) to instance `i`,
    /// its group caught up first, harvests its verdict, and removes it.
    fn retire_instance(&mut self, index: &Index, i: usize) {
        self.catch_up_group(self.instances[i].group);
        let inst = &mut self.instances[i];
        inst.filter
            .process_sym_to(SymEvent::EndDocument, Span::EMPTY, 0, &mut |_: Match| {});
        let (g, accept) = (inst.group as usize, inst.filter.result() == Some(true));
        if accept {
            self.accept(index, g);
        }
        self.remove_instance(i);
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
    /// pool for the next activation to reuse. Whoever removes an
    /// instance its group's peaks still count catches the group up
    /// first ([`Run::catch_up_group`]).
    fn remove_instance(&mut self, i: usize) {
        self.fold_growth(i);
        let inst = self.instances.swap_remove(i);
        let doc = &mut self.doc[inst.group as usize];
        doc.live_bits -= inst.noted_bits;
        doc.live_pending -= inst.noted_pending;
        self.free_filters[inst.residual as usize].push(inst.filter);
    }
}

/// Routes one confirmed match of reporting group `g` to every member,
/// deduplicating ordinals for groups whose descendant-axis prefixes
/// allow nested activations to confirm the same element twice. A free
/// function over the fields it writes, so a live instance's sink can
/// call it while the instance is borrowed.
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
