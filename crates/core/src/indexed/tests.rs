use super::chains::{Chains, NIL};
use super::index::MIN_TOMBSTONES;
use super::*;
use crate::multi::MultiFilter;
use crate::reporter::Match;
use fx_xml::{AttrBuf, Event, SymCache};
use fx_xpath::canonical::{
    canonical_key, canonical_residual_key, canonical_steps, residual_query, sharable_prefix_len,
};
use fx_xpath::parse_query;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Feeds owned fixture events with their spans to `bank` (either bank,
/// or a lone filter), interning each once against its table — as a
/// session interns a pushed event — and routes the matches they confirm
/// to `sink`.
pub(crate) fn feed_to<'e>(
    bank: &mut impl Evaluator,
    events: impl IntoIterator<Item = (&'e Event, Span)>,
    sink: &mut dyn MatchSink,
) {
    let symbols = Arc::clone(bank.symbols());
    let (mut attrs, mut names) = (AttrBuf::new(), SymCache::new());
    for (event, span) in events {
        bank.event(attrs.sym_event(&mut names, &symbols, event), span, sink);
    }
}

/// [`feed_to`] without spans, dropping the matches.
pub(crate) fn feed(bank: &mut impl Evaluator, events: &[Event]) {
    feed_to(
        bank,
        events.iter().map(|e| (e, Span::EMPTY)),
        &mut |_: Match| {},
    );
}

fn bank(srcs: &[&str]) -> (IndexedBank, MultiFilter) {
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    (
        IndexedBank::new(&queries).unwrap(),
        MultiFilter::new(&queries).unwrap(),
    )
}

fn feed_both(ib: &mut IndexedBank, mf: &mut MultiFilter, xml: &str) {
    let events = fx_xml::parse(xml).unwrap();
    feed(ib, &events);
    feed(mf, &events);
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
    assert_eq!(
        ib.space_stats().groups,
        1,
        "commutative reorderings share a group"
    );
    feed(&mut ib, &fx_xml::parse("<a><c/><b/><d/></a>").unwrap());
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
    feed(&mut ib, &fx_xml::parse(&xml).unwrap());
    assert_eq!(
        ib.results(),
        vec![Some(true), Some(false), Some(false)],
        "verdicts"
    );
    // Only the asia group ever spawned per-query state, and only one
    // of its items is open at a time.
    assert_eq!(ib.space_stats().peak_instances, 1);
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
    let spanned = fx_xml::parse_spanned(xml).unwrap();
    let events = spanned.iter().map(|(event, span)| (event, *span));
    feed_to(&mut ib, events.clone(), &mut got);
    feed_to(&mut mf, events, &mut want);
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
    let spanned = fx_xml::parse_spanned(xml).unwrap();
    feed_to(
        &mut ib,
        spanned.iter().map(|(event, span)| (event, *span)),
        &mut |m: Match| got.push(m.ordinal),
    );
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
    assert_eq!(
        ib.space_stats().groups,
        4,
        "distinct full queries stay distinct"
    );
    assert_eq!(
        ib.space_stats().residual_pool,
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
    let events = fx_xml::parse(&xml).unwrap();
    feed(&mut ib, &events);
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
    feed(&mut reference, &events);
    assert_eq!(reference.results(), ib.results());
}

#[test]
fn root_and_trie_groups_share_equal_residual_forms() {
    let srcs = ["//t[u]", "/hub//t[u]"];
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    let mut ib = IndexedBank::new(&queries).unwrap();
    assert_eq!(ib.space_stats().groups, 2);
    assert_eq!(
        ib.space_stats().residual_pool,
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
        feed(&mut ib, &fx_xml::parse(xml).unwrap());
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
        feed(&mut ib, &fx_xml::parse(&xml).unwrap());
        assert_eq!(ib.results(), vec![Some(false)]);
        assert_eq!(ib.space_stats().peak_instances, d);
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
        let spanned = fx_xml::parse_spanned(&xml).unwrap();
        feed_to(
            &mut ib,
            spanned.iter().map(|(event, span)| (event, *span)),
            &mut |_: Match| {},
        );
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
        ib.space_stats().peak_instances,
        1,
        "only the woken /hub residual materializes; /@id never does"
    );
}

#[test]
fn subscribe_extends_a_live_bank_without_recompiling_known_forms() {
    let mut ib = IndexedBank::new(&[parse_query("/site/asia/item[price > 5]").unwrap()]).unwrap();
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
    let events =
        fx_xml::parse("<site><europe><item><price>9</price></item></europe></site>").unwrap();
    feed(&mut ib, &events);
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
    feed(&mut fresh, &events);
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
    feed(&mut ib, &fx_xml::parse(xml).unwrap());
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
    let pool = ib.space_stats().residual_pool;
    assert!(pool <= 2, "{pool}");
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
        let events = fx_xml::parse(xml).unwrap();
        feed(&mut ib, &events);
        feed(&mut fresh, &events);
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
    assert_eq!(ib.space_stats().groups, 1);
    assert_eq!(ib.residual_builds(), builds);
    feed(&mut ib, &fx_xml::parse("<a><item><p/></item></a>").unwrap());
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
        ib.space_stats().residual_pool,
        0,
        "every churned remainder released its pool entry"
    );
}

#[test]
fn mid_document_churn_is_safe_and_lands_next_document() {
    let (mut ib, mut mf) = bank(&["/r[a]", "//b[c]"]);
    let events = fx_xml::parse("<r><a/><b><c/></b></r>").unwrap();
    let (head, tail) = events.split_at(3);
    feed(&mut ib, head);
    feed(&mut mf, head);
    // Mid-document: subscribe a new query and withdraw an existing
    // one. Neither may disturb the in-flight evaluation of the
    // untouched query.
    ib.subscribe(&parse_query("/r/a").unwrap()).unwrap();
    let id = ib.subscription_of(1).unwrap();
    ib.unsubscribe(id);
    feed(&mut ib, tail);
    feed(&mut mf, tail);
    assert_eq!(ib.results()[0], Some(true));
    // Next document, everything is in effect.
    let survivors = ["/r[a]", "/r/a"];
    let (mut fresh, _) = bank(&survivors);
    let events = fx_xml::parse("<r><a/></r>").unwrap();
    feed(&mut ib, &events);
    feed(&mut fresh, &events);
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

/// Feeds `xml` to both banks, checking the index structure after every
/// event the indexed bank takes and the verdicts at the end.
fn feed_checked(ib: &mut IndexedBank, mf: &mut MultiFilter, xml: &str) {
    let events = fx_xml::parse(xml).unwrap();
    for e in &events {
        feed(ib, std::slice::from_ref(e));
        assert_chains_consistent(ib);
    }
    feed(mf, &events);
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
    let events = fx_xml::parse(xml).unwrap();
    for reporting in [false, true] {
        for cut in 0..events.len() {
            let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
            let mut ib = IndexedBank::build(&queries, reporting, true, Default::default())
                .map_err(|(i, _)| i)
                .unwrap();
            for (n, e) in events.iter().enumerate() {
                if n == cut {
                    for slot in [0, 1] {
                        assert!(ib.unsubscribe(ib.subscription_of(slot).unwrap()));
                        assert_chains_consistent(&ib);
                    }
                }
                feed(&mut ib, std::slice::from_ref(e));
                assert_chains_consistent(&ib);
            }
            assert_eq!(ib.results()[2], Some(true), "cut {cut}");
            // The next document reads like a fresh bank's.
            let (mut fresh, _) = bank(&srcs[2..]);
            feed(&mut ib, &events);
            feed(&mut fresh, &events);
            assert_eq!(ib.results()[2], fresh.results()[0], "cut {cut}");
            assert_eq!(ib.space_stats().total_bits, ib.peak_memory_bits()[2]);
        }
    }
}

#[test]
fn compact_and_partition_after_an_aborted_document() {
    let srcs = ["/r/a/b[c]", "//a//b", "/r[k]", "/r/*/b"];
    let good = "<r><a><b><c/></b></a><k/></r>";
    let events = fx_xml::parse(good).unwrap();
    let reading = |ib: &mut IndexedBank| {
        feed(ib, &events);
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
    feed(&mut ib, &events[..3]);
    assert!(!ib.run.records.is_empty() && ib.run.dormant_live > 0 && !ib.run.instances.is_empty());
    ib.unsubscribe(ib.subscription_of(3).unwrap());
    assert!(!ib.compact(), "mid-document: compaction waits");
    // Tombstoned trie linkage still costs records until compaction:
    // verdicts agree now, every bit of the accounting afterwards.
    let verdicts =
        |r: &(Vec<(Option<bool>, u64)>, u64)| -> Vec<_> { r.0.iter().map(|&(v, _)| v).collect() };
    assert_eq!(verdicts(&reading(&mut ib)), verdicts(&want), "tombstoned");
    assert!(ib.compact());
    assert_chains_consistent(&ib);
    assert_eq!(reading(&mut ib), want, "compacted");
}

#[test]
fn subscribing_a_new_symbol_grows_the_chain_tables() {
    let (mut ib, _) = bank(&["/r/a"]);
    let run = |ib: &mut IndexedBank, xml: &str| {
        feed(ib, &fx_xml::parse(xml).unwrap());
        ib.results()
    };
    let xml = "<r><a/><fresh><newer/></fresh></r>";
    assert_eq!(run(&mut ib, xml), [Some(true)]);
    let (records, wakes) = (ib.run.record_chains.0.len(), ib.run.wake_chains.0.len());
    ib.subscribe(&parse_query("/r/fresh").unwrap()).unwrap();
    ib.subscribe(&parse_query("/r/fresh[newer]").unwrap())
        .unwrap();
    assert!(ib.run.record_chains.0.len() > records, "a head for `fresh`");
    assert!(ib.run.wake_chains.0.len() > wakes, "a head for `newer`");
    assert_eq!(run(&mut ib, xml), [Some(true); 3]);
    assert_chains_consistent(&ib);
}

/// A query subscribed on a live bank takes effect at the next
/// document with no call in between, on the reader path (the
/// lookup-only parser's view held no `gadget`) and on owned events
/// interned through one `SymCache` kept across documents, the way a
/// session keeps one.
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
    let (mut attrs, mut names) = (AttrBuf::new(), SymCache::new());
    let symbols = Arc::clone(ib.symbols());
    let mut push_all = |ib: &mut IndexedBank| {
        for e in &events {
            let ev = attrs.sym_event(&mut names, &symbols, e);
            ib.event(ev, Span::EMPTY, &mut routed);
        }
    };
    push_all(&mut ib);
    ib.subscribe(&late).unwrap();
    push_all(&mut ib);
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

proptest! {
    /// The residual pool keys a remainder by `canonical_residual_key(q,
    /// k)` and compiles `residual_query(q, k)` under that key: the two
    /// must agree at every cut `k` a bank can make (any `k` up to the
    /// sharable prefix), or one key would stand for two remainders.
    /// Over the shared-prefix bank generator's families and random
    /// redundancy-free queries.
    #[test]
    fn residual_queries_render_their_residual_keys(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = fx_workloads::SharedPrefixBankConfig {
            families: 3,
            queries_per_family: 4,
            prefix_depth: 1 + seed as usize % 4,
            cross_family_tails: seed % 2 == 0,
        };
        let mut queries = fx_workloads::random_shared_prefix_bank(&mut rng, &cfg).queries;
        let random = fx_workloads::RandomQueryConfig::default();
        queries.extend((0..8).map(|_| fx_workloads::random_redundancy_free(&mut rng, &random)));
        for q in &queries {
            let cuts = canonical_steps(q).len().min(sharable_prefix_len(q) + 1);
            for k in 0..cuts {
                prop_assert_eq!(
                    canonical_key(&residual_query(q, k)),
                    canonical_residual_key(q, k),
                    "{} cut at {}",
                    fx_xpath::to_xpath(q),
                    k
                );
            }
        }
    }
}

/// The attribution as the bank computed it before it kept a per-slot
/// trie-sharer column: every slot walked, its group read for
/// `document_rooted` (every live slot when no trie query is left).
fn attribution_by_slot_walk(ib: &IndexedBank) -> Vec<u64> {
    let (index, run) = (&*ib.index, &ib.run);
    let mut out = vec![0u64; index.query_group.len()];
    let mut split = |bits: u64, k: usize, sharers: &mut dyn Iterator<Item = usize>| {
        if k == 0 || bits == 0 {
            return;
        }
        let (base, rem) = (bits / k as u64, bits % k as u64);
        for (rank, i) in sharers.enumerate() {
            out[i] += base + u64::from((rank as u64) < rem);
        }
    };
    for &g in &run.touched {
        let members = &index.groups[g as usize].members;
        let bits = run.doc[g as usize].peak_bits;
        split(bits, members.len(), &mut members.iter().copied());
    }
    let mut alive = (0..index.query_group.len()).filter(|&i| index.slot_alive[i]);
    let rooted: usize = (index.root_groups.iter())
        .map(|&g| index.groups[g as usize].members.len())
        .sum();
    let sharers = index.subs.len() - rooted;
    if sharers == 0 {
        split(run.peak_trie_bits, index.subs.len(), &mut alive);
    } else {
        let rooted = |i: &usize| index.groups[index.query_group[*i] as usize].document_rooted;
        split(
            run.peak_trie_bits,
            sharers,
            &mut alive.filter(|i| !rooted(i)),
        );
    }
    out
}

/// The bank's readout against the slot walk it replaced: the sharer
/// column, the attribution and its sum, and — finished or mid-document
/// — the verdicts of the live slots as `accepted_slots` gives them.
fn assert_readout(ib: &IndexedBank) {
    let index = &*ib.index;
    for (slot, &g) in index.query_group.iter().enumerate() {
        let sharer = index.slot_alive[slot] && !index.groups[g as usize].document_rooted;
        assert_eq!(index.trie_sharer[slot], sharer, "slot {slot}");
    }
    let per = ib.peak_memory_bits();
    assert_eq!(per, attribution_by_slot_walk(ib));
    // With no query left, the trie's history has nobody to charge, and
    // the total says so too.
    assert_eq!(per.iter().sum::<u64>(), ib.total_max_bits(), "{per:?}");
    let mut accepted = vec![false; ib.len()];
    for slot in ib.accepted_slots() {
        assert!(!accepted[slot], "slot {slot} read twice");
        accepted[slot] = true;
    }
    let results = ib.results();
    for slot in (0..ib.len()).filter(|&s| index.slot_alive[s]) {
        let read = accepted[slot].then_some(true);
        let read = read.or(ib.is_finished().then_some(false));
        assert_eq!(results[slot], read, "slot {slot}");
    }
}

/// Trie queries beside document-rooted ones (a predicate on the first
/// step leaves no sharable prefix).
const READOUT_QUERIES: [&str; 9] = [
    "/site/a/item[p > 1]",
    "/site/a/item[1 < p]",
    "/site/b/item[p > 1]",
    "/site/a/leaf",
    "//item/p",
    "/site/*/item",
    "//x[y]",
    "/site[a]/b",
    "/site[b]",
];

const READOUT_DOCS: [&str; 4] = [
    "<site><a><item><p>2</p></item><leaf/></a><b><item><p>0</p></item></b></site>",
    "<site><a><x><y/></x></a><b/></site>",
    "<site><b><item><p>5</p></item></b></site>",
    "<other/>",
];

#[test]
fn the_trie_share_follows_the_live_slots_once_every_sharer_left() {
    let queries: Vec<Query> = READOUT_QUERIES
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let mut ib = IndexedBank::new(&queries).unwrap();
    feed(&mut ib, &fx_xml::parse(READOUT_DOCS[0]).unwrap());
    assert!(ib.space_stats().shared_trie_bits > 0);
    assert_readout(&ib);
    // Every trie query leaves; the three rooted ones carry the trie's
    // history, so the attribution still sums to the bank total.
    for slot in 0..6 {
        let id = ib.subscription_of(slot).unwrap();
        assert!(ib.unsubscribe(id));
        assert_readout(&ib);
    }
    let per = ib.peak_memory_bits();
    assert!(per[6..].iter().all(|&bits| bits > 0), "{per:?}");
    assert!(ib.compact());
    assert_readout(&ib);
}

proptest! {
    /// Random subscribe / unsubscribe / compact / whole-or-partial
    /// document sequences: after every step the readout equals the
    /// slot walk's.
    #[test]
    fn the_readout_matches_the_slot_walk_under_churn(seed in 0u64..1_000_000) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let queries: Vec<Query> = READOUT_QUERIES.iter().map(|s| parse_query(s).unwrap()).collect();
        let docs: Vec<Vec<Event>> =
            READOUT_DOCS.iter().map(|x| fx_xml::parse(x).unwrap()).collect();
        let mut ib = IndexedBank::new(&[]).unwrap();
        let mut live: Vec<SubscriptionId> = Vec::new();
        for _ in 0..48 {
            match rng.gen_range(0..6) {
                0 | 1 => live.push(ib.subscribe(&queries[rng.gen_range(0..queries.len())]).unwrap()),
                2 | 3 if !live.is_empty() => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    prop_assert!(ib.unsubscribe(id));
                }
                4 => {
                    ib.compact();
                }
                _ => {
                    let events = &docs[rng.gen_range(0..docs.len())];
                    let cut = rng.gen_range(1..events.len() + 1);
                    feed(&mut ib, &events[..cut]);
                }
            }
            assert_readout(&ib);
        }
    }
}

/// One reading of every space figure the bank reports.
type Reading = (IndexSpaceStats, Vec<u64>, Vec<usize>, u64);

fn reading(ib: &IndexedBank) -> Reading {
    (
        ib.space_stats(),
        ib.peak_memory_bits(),
        ib.peak_pending_positions(),
        ib.total_max_bits(),
    )
}

/// `//a//b[c]` keeps one residual instance per open `<a>`: the document
/// nests two. Each `<x>` chain is a stretch neither is handed (their
/// residual names `b` and `c` only). Selecting, the last one takes both
/// so deep that their one row each outweighs the two each held inside
/// `<b>`, and it ends at the inner `</a>`, where the inner instance
/// leaves: the group's peak holds only if the outer one catches up
/// first. Filtering, both accept at the `<c/>` and leave there. `//a//b[c]/x` buffers its `x` candidates until `c`
/// shows (selecting), and `//y[z > 5]` is document-rooted and takes the
/// text of its `<z>`.
const EXACT_QUERIES: [&str; 6] = [
    "//a//b",
    "//a/b",
    "//a//b[c]",
    "//a//b[c]/x",
    "//b",
    "//y[z > 5]",
];

fn exact_doc() -> String {
    format!(
        "<r><a><b><x><x><x><x/></x></x></x></b><a><b><x>t<x/></x><c/></b>{}{}</a>\
         <b><c/></b></a><y>u<z>7</z></y></r>",
        "<x>".repeat(600),
        "</x>".repeat(600)
    )
}

/// The readings the tree of commit 1cbe11e gave — the bank that fed
/// every live instance every event — after [`exact_doc`], after a
/// cut-off copy and the unsubscriptions that follow it, and after one
/// more whole copy.
fn exact_readings(reporting: bool) -> [Reading; 3] {
    let stats =
        |shared_trie_bits, residual_bits, peak_instances, activations, events| IndexSpaceStats {
            shared_trie_bits,
            residual_bits,
            total_bits: shared_trie_bits + residual_bits,
            peak_records: 6,
            peak_instances,
            activations,
            events,
            groups: 6,
            residual_pool: 3,
        };
    // Selecting, `//a//b[c]`'s instances outlive its `c`, so the long
    // stretch reaches them (4 bits more), and `//a//b[c]/x` holds two
    // `x` candidates at once.
    let (r, pending) = if reporting { (4, 2) } else { (0, 0) };
    [
        (
            stats(98, 80 + r, 4, 5, 1237),
            vec![20, 20, 42 + r, 58, 19, 19],
            vec![0, 0, 0, pending, 0, 0],
            178 + r,
        ),
        (
            stats(56, 0, 4, 9, 1267),
            vec![19, 19, 0, 0, 18, 0],
            vec![0; 6],
            56,
        ),
        (
            stats(98, 19, 1, 10, 2504),
            vec![33, 33, 0, 0, 32, 19],
            vec![0; 6],
            117,
        ),
    ]
}

#[test]
fn skipped_stretches_leave_every_space_figure_exact() {
    let queries: Vec<Query> = EXACT_QUERIES
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let events = fx_xml::parse(&exact_doc()).unwrap();
    for reporting in [false, true] {
        let mut ib = IndexedBank::build(&queries, reporting, true, Default::default())
            .map_err(|(i, _)| i)
            .unwrap();
        let want = exact_readings(reporting);
        feed(&mut ib, &events);
        assert_eq!(reading(&ib), want[0], "reporting {reporting}: the document");
        // Cut off inside the inner `<a>`'s long stretch (selecting, both
        // of each group's instances are live there); the two groups then
        // lose their one member each, and the next document runs on what
        // is left.
        feed(&mut ib, &events[..30]);
        for slot in [2, 3] {
            assert!(ib.unsubscribe(ib.subscription_of(slot).unwrap()));
        }
        assert_eq!(
            reading(&ib),
            want[1],
            "reporting {reporting}: cut, then unsubscribed"
        );
        feed(&mut ib, &events);
        assert_eq!(
            reading(&ib),
            want[2],
            "reporting {reporting}: the next document"
        );
    }
}
