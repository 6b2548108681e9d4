//! Full-fledged evaluation on streams: reporting the document-order
//! positions of the nodes `FULLEVAL(Q, D)` selects — incrementally, the
//! moment each is confirmed — not just the boolean verdict.
//!
//! The paper notes (§1) that the filtering algorithm "could be extended to
//! provide also a full-fledged evaluation of XPath queries \[22\]"; its
//! follow-up work (\[5\]) proves that such evaluation inherently requires
//! buffering — here, of *candidate output positions* whose ancestors'
//! predicates are still unresolved. This module implements that extension:
//! confirmed output candidates bubble up as *pending positions* annotated
//! with the output-path index they still need an ancestor match for, and
//! are confirmed or dropped as the enclosing candidates close.
//!
//! A position whose ancestor chain fully resolves is **emitted
//! immediately** as a [`Match`] (pushed to an outbox the owning filter
//! drains into a [`MatchSink`] after every event); only *unresolved*
//! candidates stay buffered. The buffered state is therefore exactly the
//! quantity \[5\] shows is unavoidable, and the space overhead over pure
//! filtering is `O(#pending · log |D|)` bits — matches in subtrees whose
//! predicates already resolved cost nothing and reach the consumer before
//! the rest of the document has streamed.
//!
//! ## Sparse frames
//!
//! A frame exists only for an open element that is a *candidate* for
//! some output-path index — the filter opens it the first time a start
//! tag selects a record on the output path — so the frame stack is
//! strictly increasing in level and an element no path step selected
//! costs the reporter nothing, open or closed. Closing a candidate
//! hands its unresolved pendings to the **nearest enclosing frame**:
//!
//! * when that frame is the parent element, all of them (the parent's
//!   own close decides what to consume, fork or drop);
//! * across skipped non-candidate ancestors, only those whose next step
//!   has a descendant axis — a non-candidate element can consume
//!   nothing, and lets a pending pass exactly when the step below the
//!   needed index may skip levels;
//! * when no frame encloses them, none: no open element can ever
//!   complete their chains, so they are dropped there instead of riding
//!   to the root.
//!
//! Nothing is lost to the skipping: a pending that needs index `i` whose
//! step `i + 1` has a *child* axis was produced by an element selected
//! through a child-axis record, and that record was spawned by the
//! parent element being selected for index `i` — so the parent is a
//! candidate, has a frame, and is the nearest one.

use fx_xml::Span;

/// One confirmed output node of `FULLEVAL(Q, D)`, delivered to a
/// [`MatchSink`] the moment its ancestor chain resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Index of the matching query within its bank (0 for single-query
    /// filters), in registration order.
    pub query: usize,
    /// The 0-based ordinal of the selected element: its position among
    /// the document's `startElement` events (document order).
    pub ordinal: u64,
    /// Source byte range of the whole element, from the first byte of
    /// its start tag to the last byte of its end tag. [`Span::EMPTY`]
    /// when the events were pushed without span information.
    pub span: Span,
}

/// A push-style consumer of confirmed matches: the output half of
/// full-fledged evaluation, mirroring how the event stream is the input
/// half.
///
/// Implemented by `Vec<Match>` (collect everything) and by any
/// `FnMut(Match)` closure, so ad-hoc sinks need no newtype.
pub trait MatchSink {
    /// Called once per confirmed output node, in confirmation order
    /// (which is *not* document order: a match in an already-resolved
    /// subtree is delivered before earlier candidates still pending on
    /// unresolved predicates).
    fn on_match(&mut self, m: Match);
}

impl<F: FnMut(Match)> MatchSink for F {
    fn on_match(&mut self, m: Match) {
        self(m)
    }
}

impl MatchSink for Vec<Match> {
    fn on_match(&mut self, m: Match) {
        self.push(m)
    }
}

/// A pending output position: `ordinal` was locally confirmed, and the
/// chain of ancestors matching output-path indexes `needed, needed-1, …`
/// is still to be established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Pending {
    /// The 0-based ordinal of the candidate element (document order of
    /// `startElement` events).
    ordinal: u64,
    /// The 1-based output-path index the next enclosing consumer must
    /// match; 0 means the chain is complete.
    needed: u16,
    /// The candidate element's source byte range (start tag through end
    /// tag), fixed at the close that created the pending.
    span: Span,
}

/// The frame of one open *candidate* element (elements no output-path
/// step selected have none — see the module docs).
#[derive(Debug, Clone, Default)]
struct Frame {
    /// The element's document level.
    level: usize,
    /// The element's ordinal.
    ordinal: u64,
    /// Byte offset of the element's start tag (for the match span).
    span_start: u64,
    /// Output-path indexes (1-based) this element is a candidate for.
    candidates: Vec<u16>,
    /// Whether this element is a candidate for a *leaf* output node whose
    /// truth set is unrestricted (confirmed by construction).
    out_leaf_unrestricted: bool,
    /// Pendings handed up by closed descendants.
    pendings: Vec<Pending>,
}

/// The reporting state machine; owned by a `StreamFilter` in reporting
/// mode and driven from its event handlers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reporter {
    /// `frames[..open]` are the open candidate elements, outermost
    /// first and strictly increasing in level; the frames behind them
    /// are closed ones kept for their buffers, so steady-state opening
    /// and closing allocates nothing.
    frames: Vec<Frame>,
    open: usize,
    /// Matches confirmed but not yet drained by the owning filter. In
    /// sink-driven use this is emptied after every event; in legacy
    /// batch use it accumulates and doubles as the collecting sink
    /// behind `matched_positions()`.
    outbox: Vec<(u64, Span)>,
    /// Reused per-close scratch: what the closing element hands on.
    out: Vec<Pending>,
    /// Pendings buffered right now, over all open frames.
    live_pendings: usize,
    /// Peak number of simultaneously buffered *unresolved* pendings (the
    /// \[5\] cost). Confirmed matches leave the buffer at emission and are
    /// not counted.
    pub(crate) max_pendings: usize,
}

impl Reporter {
    /// Per-document reset (the owning filter's `StartDocument`).
    pub(crate) fn reset(&mut self) {
        self.open = 0;
        self.outbox.clear();
        self.live_pendings = 0;
        self.max_pendings = 0;
    }

    /// Notes that the element starting at `level` is a candidate for
    /// output-path index `idx`, opening its frame on the element's first
    /// selection. `out_leaf_unrestricted` flags a candidacy for a leaf
    /// output node whose truth set is unrestricted.
    pub(crate) fn select(
        &mut self,
        level: usize,
        ordinal: u64,
        span_start: u64,
        idx: u16,
        out_leaf_unrestricted: bool,
    ) {
        if !self.is_open_at(level) {
            if self.open == self.frames.len() {
                self.frames.push(Frame::default());
            }
            let frame = &mut self.frames[self.open];
            frame.level = level;
            frame.ordinal = ordinal;
            frame.span_start = span_start;
            frame.candidates.clear();
            frame.out_leaf_unrestricted = false;
            frame.pendings.clear();
            self.open += 1;
        }
        let frame = &mut self.frames[self.open - 1];
        if !frame.candidates.contains(&idx) {
            frame.candidates.push(idx);
        }
        frame.out_leaf_unrestricted |= out_leaf_unrestricted;
    }

    /// Closes the element at `level` — a no-op unless it is a candidate
    /// (the top frame sits at that level). `pred_ok` lists, per folded
    /// query node, `(node, all_children_matched,
    /// predicate_children_matched)` for the closing element (the
    /// filter's reused fold scratch — a handful of entries, scanned
    /// linearly); `out_leaf_value` is the per-candidate value verdict
    /// when the output node is a value-restricted leaf candidate here;
    /// `axes_child` tells, for each 1-based path index, whether that
    /// step has a child axis (true) or descendant axis (false);
    /// `end_offset` is the source byte offset one past the closing tag
    /// (completing the element's span).
    pub(crate) fn close_element(
        &mut self,
        level: usize,
        pred_ok: &[(u32, bool, bool)],
        out_leaf_value: Option<bool>,
        path_nodes: &[u32],
        axes_child: &[bool],
        end_offset: u64,
    ) {
        if !self.is_open_at(level) {
            return;
        }
        self.open -= 1;
        let (enclosing, closing) = self.frames.split_at_mut(self.open);
        let frame = &closing[0];
        let elem_span = Span::new(frame.span_start, end_offset);
        let m = path_nodes.len() as u16;
        let out = &mut self.out;
        out.clear();

        // 1. Local output candidacy: did this element confirm as OUT(Q)?
        if frame.candidates.contains(&m) {
            let local_ok = if frame.out_leaf_unrestricted {
                true
            } else if let Some(v) = out_leaf_value {
                v
            } else {
                // Internal output node: its predicate children must have
                // matched within this element.
                lookup_pred(pred_ok, path_nodes[m as usize - 1]).unwrap_or(false)
            };
            if local_ok {
                out.push(Pending {
                    ordinal: frame.ordinal,
                    needed: m - 1,
                    span: elem_span,
                });
            }
        }

        // 2. Pendings bubbled from descendants: consume and/or skip.
        for &p in &frame.pendings {
            let i = p.needed;
            // Consume: this element is a valid candidate for index i.
            if frame.candidates.contains(&i) {
                let node = path_nodes[i as usize - 1];
                // A path node with no entry has no children folded here
                // (impossible for interior indexes — they have a
                // successor), or its children were spawned but all
                // resolved earlier. Treat missing entries as false.
                if lookup_pred(pred_ok, node).unwrap_or(false) {
                    out.push(Pending { needed: i - 1, ..p });
                }
            }
            // Skip: allowed when the step *below* index i (index i+1)
            // reaches its parent via a descendant axis.
            if !axes_child[i as usize] {
                out.push(p);
            }
        }
        self.live_pendings -= frame.pendings.len();

        // Deduplicate (an element may be a candidate for several indexes,
        // or a pending may arrive via multiple chains). A pending's span
        // is determined by its ordinal, so (ordinal, needed) ordering
        // groups true duplicates adjacently.
        out.sort_unstable_by_key(|p| (p.ordinal, p.needed));
        out.dedup();

        // 3. Emission: a pending whose chain just completed (needed == 0)
        // is a genuine result *now* — no later event can revoke a real
        // match — so it goes straight to the outbox. Every other copy of
        // that ordinal (forked by the consume-and-skip rule on descendant
        // axes) is dropped so the node cannot confirm twice via a second
        // chain; all copies of an ordinal live in this frame, so purging
        // `out` is complete. The unresolved rest goes to the nearest
        // enclosing frame: whole when that is the parent element, and
        // past skipped non-candidate ancestors only where the step below
        // the needed index may skip levels (see the module docs).
        let mut parent = enclosing.last_mut();
        let adjacent = parent.as_ref().is_some_and(|f| f.level + 1 == level);
        let mut i = 0;
        while i < out.len() {
            let ordinal = out[i].ordinal;
            let mut j = i + 1;
            while j < out.len() && out[j].ordinal == ordinal {
                j += 1;
            }
            if out[i].needed == 0 {
                self.outbox.push((ordinal, out[i].span));
            } else if let Some(parent) = &mut parent {
                let before = parent.pendings.len();
                parent.pendings.extend(
                    out[i..j]
                        .iter()
                        .filter(|p| adjacent || !axes_child[p.needed as usize]),
                );
                self.live_pendings += parent.pendings.len() - before;
            }
            i = j;
        }
        self.max_pendings = self.max_pendings.max(self.live_pendings);
    }

    /// Whether the open element at `level` is a candidate.
    pub(crate) fn is_open_at(&self, level: usize) -> bool {
        self.open > 0 && self.frames[self.open - 1].level == level
    }

    /// True when no confirmed match awaits draining.
    pub(crate) fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Drains the confirmed-match outbox, oldest first.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, (u64, Span)> {
        self.outbox.drain(..)
    }

    /// The undrained confirmed output ordinals, sorted. (Emission already
    /// deduplicates, so this is a sort of the outbox.)
    pub(crate) fn results(&self) -> Vec<u64> {
        let mut r: Vec<u64> = self.outbox.iter().map(|&(o, _)| o).collect();
        r.sort_unstable();
        r
    }
}

/// The predicate-children verdict folded for `node`, if any (linear
/// scan: the fold scratch holds one entry per distinct parent closing
/// at this element — a handful).
fn lookup_pred(pred_ok: &[(u32, bool, bool)], node: u32) -> Option<bool> {
    pred_ok
        .iter()
        .find(|&&(n, _, _)| n == node)
        .map(|&(_, _, pm)| pm)
}

#[cfg(test)]
mod tests {
    use crate::filter::StreamFilter;
    use fx_dom::{Document, NodeKind};
    use fx_xpath::parse_query;

    /// Maps the reference evaluator's selected nodes to element ordinals
    /// (0-based position among startElement events = document order).
    fn expected_positions(query: &str, xml: &str) -> Vec<u64> {
        let q = parse_query(query).unwrap();
        let d = Document::from_xml(xml).unwrap();
        let elements: Vec<_> = d
            .all_nodes()
            .filter(|&n| d.kind(n) == NodeKind::Element)
            .collect();
        let mut out: Vec<u64> = fx_eval::full_eval(&q, &d)
            .unwrap()
            .into_iter()
            .map(|n| {
                elements
                    .iter()
                    .position(|&e| e == n)
                    .expect("selected nodes are elements") as u64
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn reported_positions(query: &str, xml: &str) -> Vec<u64> {
        let q = parse_query(query).unwrap();
        let events = fx_xml::parse(xml).unwrap();
        StreamFilter::run_reporting(&q, &events).unwrap()
    }

    fn agree(query: &str, xml: &str) {
        assert_eq!(
            reported_positions(query, xml),
            expected_positions(query, xml),
            "{query} on {xml}"
        );
    }

    #[test]
    fn simple_child_paths() {
        agree("/a/b", "<a><b/><c/><b/></a>");
        agree("/a/b/c", "<a><b><c/></b><b><x/></b><b><c/><c/></b></a>");
        agree("/a/b", "<a><x><b/></x></a>"); // deep b is NOT selected
    }

    #[test]
    fn descendant_output() {
        agree("//b", "<a><b/><x><b/></x></a>");
        agree("//a//b", "<a><b/><a><b/></a></a>");
        agree("//b", "<b><b/></b>");
    }

    #[test]
    fn predicates_on_the_path() {
        agree("/a/b[c]", "<a><b><c/></b><b><x/></b><b><c/></b></a>");
        agree("/a[x]/b", "<a><b/></a>");
        agree("/a[x]/b", "<a><x/><b/><b/></a>");
        // The predicate resolves AFTER the candidate output closes.
        agree("/a[x]/b", "<a><b/><b/><x/></a>");
    }

    #[test]
    fn value_predicates_gate_the_output() {
        // OUT(Q) itself is always unrestricted (its succession root is the
        // query root, Def. 5.6 case 2), so values gate selection through
        // predicates on the path.
        agree(
            "//item[price > 300]/name",
            "<item><price>400</price><name>x</name></item>",
        );
        agree(
            "//item[price > 300]/name",
            "<item><price>200</price><name>x</name></item>",
        );
        agree(
            "//item[price > 300]/name",
            "<r><item><price>400</price><name>a</name></item><item><name>b</name><price>500</price></item></r>",
        );
    }

    #[test]
    fn recursion_and_duplicates() {
        // Nested a's: each b selected once even when reachable via two
        // matching ancestors.
        agree("//a/b", "<a><b/><a><b/></a></a>");
        agree("//a//b", "<r><a><a><b/></a></a></r>");
        agree("//a[c]//b", "<a><c/><a><b/></a></a>");
        agree("//a[c]//b", "<a><a><b/></a><c/></a>");
    }

    #[test]
    fn late_resolving_ancestors() {
        // The candidate output at ordinal 2 must stay pending until the
        // ancestor's predicate child <c> arrives (after it), then confirm.
        agree("//a[c and d]/b", "<a><b/><c/><d/></a>");
        agree("//a[c and d]/b", "<a><b/><c/></a>"); // d missing: drop
        agree(
            "//a[c]/b",
            "<a><b/><a><b/></a><c/></a>", // outer confirmed late, inner dropped
        );
    }

    #[test]
    fn wildcard_steps() {
        agree("/a/*/b", "<a><x><b/></x><y><b/></y><b/></a>");
    }

    #[test]
    fn non_matching_documents_report_nothing() {
        assert!(reported_positions("/a/b", "<a><c/></a>").is_empty());
        assert!(reported_positions("//q", "<a><b/></a>").is_empty());
    }

    #[test]
    fn attribute_output_is_rejected() {
        let q = parse_query("/a/@id").unwrap();
        assert!(matches!(
            StreamFilter::new_reporting(&q),
            Err(crate::filter::UnsupportedQuery::AttributeOutput)
        ));
    }

    #[test]
    fn reporting_mode_keeps_the_boolean_verdict() {
        let q = parse_query("//a[b and c]").unwrap();
        for xml in ["<a><b/><c/></a>", "<a><b/></a>", "<a><a><b/><c/></a></a>"] {
            let events = fx_xml::parse(xml).unwrap();
            let mut plain = StreamFilter::new(&q).unwrap();
            plain.process_all(&events);
            let mut reporting = StreamFilter::new_reporting(&q).unwrap();
            reporting.process_all(&events);
            assert_eq!(plain.result(), reporting.result(), "{xml}");
        }
    }

    #[test]
    fn matches_emit_the_moment_their_chain_resolves() {
        // Two <a> subtrees: the first resolves (has <x/>) and closes
        // early; its b-matches must be drained *before* the second
        // subtree — let alone endDocument — streams.
        let xml = "<r><a><x/><b/><b/></a><a><b/><b/><b/></a></r>";
        let q = parse_query("//a[x]/b").unwrap();
        let mut f = StreamFilter::new_reporting(&q).unwrap();
        let spanned = fx_xml::parse_spanned(xml).unwrap();
        let mut arrivals: Vec<(u64, usize)> = Vec::new(); // (ordinal, events seen)
        for (i, (event, span)) in spanned.iter().enumerate() {
            f.process_spanned(event, *span);
            let seen = i + 1;
            f.drain_matches(0, &mut |m: crate::Match| arrivals.push((m.ordinal, seen)));
        }
        let total = spanned.len();
        // Ordinals: r=0, a=1, x=2, b=3, b=4, a=5, b=6,7,8. Only the
        // first subtree's b's match.
        assert_eq!(
            arrivals.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            vec![3, 4]
        );
        for &(ordinal, seen) in &arrivals {
            assert!(
                seen <= total / 2,
                "match {ordinal} arrived at event {seen}/{total}, not incrementally"
            );
        }
        // Drained matches are gone; the legacy accessor sees only what
        // was never drained (nothing here).
        assert_eq!(f.matched_positions().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn match_spans_cover_the_selected_elements() {
        let xml = "<r><a><x/><b>hi</b></a><b/></r>";
        let q = parse_query("//a[x]/b").unwrap();
        let mut f = StreamFilter::new_reporting(&q).unwrap();
        let mut matches: Vec<crate::Match> = Vec::new();
        for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
            f.process_spanned(&event, span);
            f.drain_matches(7, &mut matches);
        }
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].query, 7, "sink sees the stamped bank index");
        assert_eq!(matches[0].span.slice(xml), Some("<b>hi</b>"));
    }

    #[test]
    fn resolved_matches_are_not_buffered_as_pending() {
        // Every <b> resolves at its own close: n matches stream out while
        // the unresolved-candidate buffer (the [5] cost) stays empty.
        let n = 200;
        let xml = format!("<r>{}</r>", "<b/>".repeat(n));
        let q = parse_query("//b").unwrap();
        let mut f = StreamFilter::new_reporting(&q).unwrap();
        let mut count = 0usize;
        for (event, span) in fx_xml::parse_spanned(&xml).unwrap() {
            f.process_spanned(&event, span);
            f.drain_matches(0, &mut |_m: crate::Match| count += 1);
        }
        assert_eq!(count, n);
        assert_eq!(
            f.peak_pending_positions(),
            0,
            "immediately-resolved matches must not occupy the pending buffer"
        );
    }

    #[test]
    fn forked_chains_confirm_an_ordinal_once() {
        // //a//b under nested a's: the pending forks (consume + skip) and
        // both copies eventually resolve; the b must be reported once.
        for xml in [
            "<a><a><b/></a></a>",
            "<a><a><a><b/></a></a></a>",
            "<r><a><a><b/><b/></a></a></r>",
        ] {
            let q = parse_query("//a//b").unwrap();
            let mut f = StreamFilter::new_reporting(&q).unwrap();
            let mut seen: Vec<u64> = Vec::new();
            for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
                f.process_spanned(&event, span);
                f.drain_matches(0, &mut |m: crate::Match| seen.push(m.ordinal));
            }
            let mut deduped = seen.clone();
            deduped.sort_unstable();
            deduped.dedup();
            assert_eq!(seen.len(), deduped.len(), "duplicate emission on {xml}");
            assert_eq!(deduped, expected_positions("//a//b", xml), "{xml}");
        }
    }

    #[test]
    fn pending_buffer_is_measured() {
        // Many candidates pending on a late predicate: the [5] buffering
        // cost shows up in peak_pending_positions.
        let n = 50;
        let xml = format!("<a>{}<x/></a>", "<b/>".repeat(n));
        let q = parse_query("/a[x]/b").unwrap();
        let events = fx_xml::parse(&xml).unwrap();
        let mut f = StreamFilter::new_reporting(&q).unwrap();
        f.process_all(&events);
        assert_eq!(f.matched_positions().unwrap().len(), n);
        assert!(f.peak_pending_positions() >= n);
    }

    /// Bulk differential against the reference evaluator.
    #[test]
    fn bulk_differential_positions() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let queries = [
            "/a/b",
            "//a/b",
            "//a//b",
            "//a[c]/b",
            "/a/b[c]",
            "//b[a and .//c]",
            "/a/*/b",
            "//x//a[b]",
        ];
        let mut rng = SmallRng::seed_from_u64(0x9E9);
        let cfg = fx_workloads::RandomDocConfig::default();
        for qs in queries {
            for _ in 0..50 {
                let d = fx_workloads::random_document(&mut rng, &cfg);
                agree(qs, &d.to_xml());
            }
        }
    }
}
