//! Indexed-bank parity: `fx_core::IndexedBank` (the shared-prefix
//! multi-query index) must be observationally equivalent to the naive
//! `fx_core::MultiFilter` — per-query boolean **verdicts** and the
//! routed **match streams** (bank index + document-order ordinal +
//! source byte span) — across seeded xmark documents, shared-prefix
//! family workloads (including a 1k-query bank), random documents, and
//! proptest-chosen query/document pairs. Match streams are compared as
//! sorted vectors, so duplicated or dropped emissions fail loudly.

use frontier_xpath::engine::{IndexPolicy, Mode};
use frontier_xpath::filter::{CompiledQuery, IndexedBank, MultiFilter};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    auction_site, random_document, random_redundancy_free, random_shared_prefix_bank,
    standing_queries, RandomDocConfig, RandomQueryConfig, SharedPrefixBankConfig, XmarkConfig,
};
use frontier_xpath::xpath::{Axis, CompOp, Expr, NodeTest, QueryNodeId, Value};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{feed, feed_to, fx_cases, run_reader_outcome};

/// (query, ordinal, span start, span end) — the full observable content
/// of a routed match, order-normalized.
fn normalize(matches: &[Match]) -> Vec<(usize, u64, u64, u64)> {
    let mut v: Vec<(usize, u64, u64, u64)> = matches
        .iter()
        .map(|m| (m.query, m.ordinal, m.span.start, m.span.end))
        .collect();
    v.sort_unstable();
    v
}

/// Feeds `xml` through both banks in filtering *and* reporting mode and
/// asserts verdict and match-stream parity.
fn assert_parity(queries: &[Query], xml: &str) {
    // Filtering mode: verdicts only.
    let mut ib = IndexedBank::new(queries).unwrap();
    let mut mf = MultiFilter::new(queries).unwrap();
    let events = fx_xml::parse(xml).unwrap();
    feed(&mut ib, &events);
    feed(&mut mf, &events);
    assert_eq!(ib.results(), mf.results(), "filter verdicts on {xml}");
    assert_eq!(
        ib.matching_queries(),
        mf.matching_queries(),
        "fan-out on {xml}"
    );

    // Reporting mode: verdicts plus routed match streams.
    let mut ib = IndexedBank::new_reporting(queries).unwrap();
    let compiled: Vec<CompiledQuery> = queries
        .iter()
        .map(|q| CompiledQuery::compile(q).unwrap())
        .collect();
    let mut mf = MultiFilter::from_compiled_reporting(compiled).unwrap();
    let mut got: Vec<Match> = Vec::new();
    let mut want: Vec<Match> = Vec::new();
    let spanned = fx_xml::parse_spanned(xml).unwrap();
    let events = spanned.iter().map(|(event, span)| (event, *span));
    feed_to(&mut ib, events.clone(), &mut got);
    feed_to(&mut mf, events, &mut want);
    assert_eq!(ib.results(), mf.results(), "reporting verdicts on {xml}");
    assert_eq!(normalize(&got), normalize(&want), "match streams on {xml}");
}

/// The acceptance-criteria scenario: a seeded 1024-query bank of
/// overlapping prefix families, equivalent under the index and the
/// naive bank on family documents, partially-active documents, and
/// documents that activate nothing.
#[test]
fn seeded_1k_bank_parity_on_shared_prefix_documents() {
    let mut rng = SmallRng::seed_from_u64(0x1D1);
    let bank = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 64,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    assert_eq!(bank.len(), 1024);
    let docs = [
        bank.document(&[0, 7, 31, 63], 4, 2),
        bank.document(&[1], 16, 0),
        bank.document(&(0..16).collect::<Vec<_>>(), 1, 1),
        bank.document(&[], 0, 4),
        "<other><hub/></other>".to_string(),
    ];
    for xml in &docs {
        assert_parity(&bank.queries, xml);
    }
}

/// Parity on the xmark auction corpus with the standing dissemination
/// queries plus selection-style path queries (descendant prefixes,
/// recursion through nested categories, value predicates).
#[test]
fn xmark_corpus_parity() {
    let mut queries: Vec<Query> = standing_queries().into_iter().map(|(_, q)| q).collect();
    for src in [
        "//item[price > 300]/name",
        "/site/regions/asia/item",
        "/site/regions/asia/item/name",
        "//category//name",
        "//person[watches]/name",
        "/site/open_auctions/open_auction[bidder]/current",
    ] {
        queries.push(parse_query(src).unwrap());
    }
    let mut rng = SmallRng::seed_from_u64(0xA0C7);
    for doc_id in 0..8 {
        let d = auction_site(
            &mut rng,
            &XmarkConfig {
                items: 5,
                auctions: 4,
                people: 4,
                category_depth: 2 + doc_id % 3,
            },
        );
        assert_parity(&queries, &d.to_xml());
    }
}

/// Duplicate and commutatively-permuted queries collapse into shared
/// groups inside the index; the fan-out must still route per-query.
#[test]
fn equivalent_query_fanout_parity() {
    let srcs = [
        "/a[b and c]/d",
        "/a[c and b]/d",
        "/a/b",
        "/a/b",
        "//a[b and c]",
        "//a[c and b]",
        "/a[5 < b]/c",
        "/a[b > 5]/c",
    ];
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    let ib = IndexedBank::new(&queries).unwrap();
    assert_eq!(ib.space_stats().groups, 4, "permutations must share groups");
    let mut rng = SmallRng::seed_from_u64(0xFA11);
    let cfg = RandomDocConfig {
        max_depth: 6,
        max_children: 4,
        names: ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "3".into(), "6".into()],
    };
    for _ in 0..60 {
        let d = random_document(&mut rng, &cfg);
        assert_parity(&queries, &d.to_xml());
    }
}

/// Random small-alphabet documents against a bank mixing shared child
/// chains, descendant prefixes (nested activations), wildcards, value
/// predicates, and empty-prefix queries — the adversarial recursion
/// cases for instance scoping and ordinal-offset bookkeeping.
#[test]
fn random_document_parity_across_prefix_shapes() {
    let srcs = [
        "/a/b/c",
        "/a/b/c[x]",
        "/a/b[c]/c",
        "/a/b//c",
        "//a/b",
        "//a//b",
        "//a//b[c]",
        "//a[b]/c",
        "/a[b and c]",
        "/a/*/b",
        "//b[a and .//c]",
        "/a[b > 2]/c",
        "//x//a[b]",
        "//c",
    ];
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let cfg = RandomDocConfig {
        max_depth: 7,
        max_children: 4,
        names: ["a", "b", "c", "x"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "1".into(), "3".into(), "6".into()],
    };
    for _ in 0..150 {
        let d = random_document(&mut rng, &cfg);
        assert_parity(&queries, &d.to_xml());
    }
}

/// The engine surface: an `IndexPolicy::SharedPrefix` engine must be
/// outcome-equivalent to the default engine in both modes, across
/// reused sessions.
#[test]
fn engine_sessions_agree_across_policies() {
    let mut rng = SmallRng::seed_from_u64(0xE2E);
    let bank = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 12,
            queries_per_family: 8,
            prefix_depth: 4,
            cross_family_tails: false,
        },
    );
    let build = |policy, mode| {
        Engine::builder()
            .queries(bank.queries.iter().cloned())
            .mode(mode)
            .index(policy)
            .build()
            .unwrap()
    };
    let naive = build(IndexPolicy::None, Mode::Filter);
    let indexed = build(IndexPolicy::SharedPrefix, Mode::Filter);
    let naive_sel = build(IndexPolicy::None, Mode::Select);
    let indexed_sel = build(IndexPolicy::SharedPrefix, Mode::Select);
    let mut s1 = naive.session();
    let mut s2 = indexed.session();
    let mut s3 = naive_sel.session();
    let mut s4 = indexed_sel.session();
    for xml in [
        bank.document(&[0, 5, 11], 3, 2),
        bank.document(&[2], 8, 0),
        bank.document(&[], 0, 2),
    ] {
        let v1 = s1.run_reader(xml.as_bytes()).unwrap();
        let v2 = s2.run_reader(xml.as_bytes()).unwrap();
        assert_eq!(v1.matched(), v2.matched(), "{xml}");
        let o1 = run_reader_outcome(&mut s3, xml.as_bytes()).unwrap();
        let o2 = run_reader_outcome(&mut s4, xml.as_bytes()).unwrap();
        assert_eq!(o1.verdicts().matched(), o2.verdicts().matched(), "{xml}");
        for q in 0..bank.len() {
            assert_eq!(o1.ordinals(q), o2.ordinals(q), "query #{q} on {xml}");
        }
    }
}

/// Sharing must actually shrink per-query state: a 1k-query bank over
/// one activated family keeps only that family's instances live, and
/// equivalent queries collapse into far fewer groups than queries.
#[test]
fn index_shares_state_on_inactive_families() {
    let mut rng = SmallRng::seed_from_u64(0x54A);
    let bank = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 64,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let mut ib = IndexedBank::new(&bank.queries).unwrap();
    let xml = bank.document(&[3], 16, 2);
    feed(&mut ib, &fx_xml::parse(&xml).unwrap());
    // Only family 3's divergence points ever spawned instances; with its
    // witnesses arriving one after another, far fewer than 16 residuals
    // are ever live at once — and nothing from the other 63 families.
    let peak = ib.space_stats().peak_instances;
    assert!(peak <= 16, "peak {peak} instances for a 1024-query bank");
    // The trie itself collapsed 1024 chains into a few hundred shared
    // nodes (|families| · depth + divergence steps, not |bank| · depth).
    assert!(
        ib.shared_nodes() < 600,
        "trie has {} nodes",
        ib.shared_nodes()
    );
}

/// Wildcard and named records share one path — two chains a single
/// start tag must both walk — including a wildcard step nested three
/// deep between descendant steps.
#[test]
fn wildcard_and_named_chains_interleave_parity() {
    let srcs = [
        "/hub/*/x",
        "/hub/a/x",
        "/hub/*/x[y]",
        "/hub/a/x[y > 2]",
        "//a//*//b",
        "//a//*//b[c]",
        "//*/a/*",
    ];
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    for xml in [
        "<hub><a><x><y>3</y></x></a><b><x/></b><a><x><y>1</y></x></a></hub>",
        "<a><k><a><k><a><k><b><c/></b></k></a></k></a></k><b/></a>",
        "<a><a><a><b><c/><b/></b></a></a></a>",
        "<hub><hub><a><x/></a></hub></hub>",
    ] {
        assert_parity(&queries, xml);
    }
    let mut rng = SmallRng::seed_from_u64(0x57A2);
    let cfg = RandomDocConfig {
        max_depth: 7,
        max_children: 3,
        names: ["hub", "a", "b", "x", "k"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        text_values: vec![String::new(), "3".into()],
    };
    for _ in 0..60 {
        assert_parity(&queries, &random_document(&mut rng, &cfg).to_xml());
    }
}

/// ROADMAP measurement item (e), the noise-free regression gate: on the
/// seeded shared-prefix bank a start tag visits only the records chained
/// under its own name (or the wildcard) and checks only the dormant
/// activations its name can wake, so the deterministic work per start
/// tag is a small constant — and, unlike a scan of the shared frontier
/// (22 records per tag at 16 families, 70 at 64), does **not** grow
/// with the number of families the document never names.
#[test]
fn per_tag_index_work_is_flat_in_family_count() {
    let work_per_start_tag = |families: usize| {
        let bank = random_shared_prefix_bank(
            &mut SmallRng::seed_from_u64(0xBEC + 16 * families as u64),
            &SharedPrefixBankConfig {
                families,
                queries_per_family: 16,
                prefix_depth: 3,
                cross_family_tails: false,
            },
        );
        let mut ib = IndexedBank::new(&bank.queries).unwrap();
        let mut start_tags = 0u64;
        for i in 0..families {
            let active = [i % families, (7 * i + 1) % families];
            let xml = bank.document_repeated(&active, 4, 8, 8 + i % 8);
            let events = fx_xml::parse(&xml).unwrap();
            start_tags += events
                .iter()
                .filter(|e| matches!(e, Event::StartElement { .. }))
                .count() as u64;
            feed(&mut ib, &events);
            // The documents do exercise the bank: both families match.
            assert!(ib.matching().count() >= 2, "families {families}, doc {i}");
        }
        let work = ib.trie_records_visited() + ib.dormant_entries_checked();
        work as f64 / start_tags as f64
    };
    let (at16, at64) = (work_per_start_tag(16), work_per_start_tag(64));
    // Measured: 0.25 at 16 families, 0.19 at 64.
    assert!(
        at16 <= 1.0,
        "{at16} index entries per start tag at 16 families"
    );
    assert!(
        at64 <= 1.0,
        "{at64} index entries per start tag at 64 families"
    );
    assert!(
        at64 <= at16 * 1.1,
        "per-tag work grew with the family count: {at16} at 16 families, {at64} at 64"
    );
}

/// Shared-residual dedup must not change observable behaviour: a seeded
/// bank whose residual shapes repeat across distinct trie groups (the
/// `cross_family_tails` generator variant) compiles each canonical
/// residual form exactly once, yet stays verdict-, ordinal- and
/// span-equivalent to the naive bank.
#[test]
fn cross_group_residual_bank_parity() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    let bank = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 12,
            queries_per_family: 6,
            prefix_depth: 3,
            cross_family_tails: true,
        },
    );
    let ib = IndexedBank::new(&bank.queries).unwrap();
    let stats = ib.space_stats();
    assert!(
        stats.groups >= 12,
        "distinct prefixes keep groups distinct: {}",
        stats.groups
    );
    assert!(
        stats.residual_pool <= 6,
        "repeated residual shapes must pool: {} forms for {} groups",
        stats.residual_pool,
        stats.groups
    );
    assert_eq!(
        ib.residual_builds() as usize,
        stats.residual_pool,
        "exactly one compiled build per canonical residual form"
    );
    for xml in [
        bank.document(&[0, 5, 11], 3, 2),
        bank.document(&(0..12).collect::<Vec<_>>(), 6, 1),
        bank.document(&[], 0, 2),
    ] {
        assert_parity(&bank.queries, &xml);
    }
}

/// Space-accounting invariant, on every bank of this suite's shared-
/// prefix differential corpus: the per-query attribution sums
/// **exactly** to the bank-level total, and no query is ever charged
/// more than a standalone `StreamFilter` run of its own query over the
/// same stream would have cost.
///
/// The second bound is a statement about banks with real sharing (the
/// index's use case): a trie row costs `log|trie|` bits where a lone
/// filter's row costs `log|Q|`, so with only a handful of sharers the
/// per-query trie share can exceed a standalone run's row cost by a bit
/// or two — but divided across a family of 16 (and a bank of hundreds)
/// it sits far below it, while the standalone cost never shrinks.
#[test]
fn attributed_space_is_exact_and_bounded_by_standalone() {
    for (seed, families, queries_per_family, prefix_depth, cross_family_tails) in [
        (0x5B1u64, 64, 16, 3, false),
        (0x5B2, 32, 16, 4, false),
        (0x5B3, 16, 16, 3, true),
    ] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bank = random_shared_prefix_bank(
            &mut rng,
            &SharedPrefixBankConfig {
                families,
                queries_per_family,
                prefix_depth,
                cross_family_tails,
            },
        );
        let mut ib = IndexedBank::new(&bank.queries).unwrap();
        let mut solo: Vec<StreamFilter> = bank
            .queries
            .iter()
            .map(|q| StreamFilter::new(q).unwrap())
            .collect();
        for xml in [
            bank.document(&[0, 1, families - 1], 4, 2),
            bank.document(&(0..families).collect::<Vec<_>>(), 2, 0),
            bank.document(&[], 0, 3),
        ] {
            let events = fx_xml::parse(&xml).unwrap();
            feed(&mut ib, &events);
            for f in solo.iter_mut() {
                f.process_all(&events);
            }
        }
        let attributed = ib.peak_memory_bits();
        assert_eq!(
            attributed.iter().sum::<u64>(),
            ib.total_max_bits(),
            "attribution must be exact (seed {seed:#x})"
        );
        let stats = ib.space_stats();
        assert_eq!(stats.total_bits, ib.total_max_bits());
        assert_eq!(
            ib.residual_builds() as usize,
            stats.residual_pool,
            "one compiled-residual build per canonical form (seed {seed:#x})"
        );
        for (i, f) in solo.iter().enumerate() {
            assert!(
                attributed[i] <= f.stats().max_bits,
                "query #{i} (seed {seed:#x}): attributed {} > standalone {}",
                attributed[i],
                f.stats().max_bits
            );
        }
    }

    // The bank-level corollary on the index's own workload — 1024
    // queries, 2 of 64 families active: the indexed total undercuts
    // even the short-circuiting naive bank's, or the index has stopped
    // earning its keep.
    let mut rng = SmallRng::seed_from_u64(0xBEC + 1024);
    let bank = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 64,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let mut ib = IndexedBank::new(&bank.queries).unwrap();
    let mut mf = MultiFilter::new(&bank.queries).unwrap();
    let events = fx_xml::parse(&bank.document(&[0, 1], 4, 8)).unwrap();
    feed(&mut ib, &events);
    feed(&mut mf, &events);
    let stats = ib.space_stats();
    assert!(
        stats.total_bits < mf.total_max_bits(),
        "indexed total ({}) must undercut naive total ({}) at n=1024",
        stats.total_bits,
        mf.total_max_bits()
    );
    assert_eq!(ib.residual_builds() as usize, stats.residual_pool);
}

const PROPTEST_BANKS: &[&[&str]] = &[
    &["/a/b/c", "/a/b/c[x]", "/a/b[c]/c", "/a/b//c"],
    &["//a//b", "//a/b", "//a//b[c]", "//b"],
    &["/a[b and c]", "/a[c and b]", "/a/b", "//x//a[b]"],
    &["/a/*/b", "//a[b > 2]/c", "/a[x]/b", "//b[a and .//c]"],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(32)))]

    /// Arc-pooled vs fresh-compile parity: the same bank built with the
    /// shared-residual pool and with per-group fresh (non-Arc) compiles
    /// must agree on verdicts and `results()` — and with the naive
    /// oracle — when the document's family segments are emitted in a
    /// case-chosen permutation, so residual activation order varies
    /// across cases.
    #[test]
    fn pooled_and_unpooled_banks_agree_under_permuted_activation(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let families = 6usize;
        let bank = random_shared_prefix_bank(
            &mut rng,
            &SharedPrefixBankConfig {
                families,
                queries_per_family: 4,
                prefix_depth: 3,
                cross_family_tails: seed % 2 == 0,
            },
        );
        // Fisher–Yates with the case rng: which families appear, in
        // which order (activation order follows document order).
        let mut order: Vec<usize> = (0..families).collect();
        for i in (1..families).rev() {
            let j = rng.gen_range(0..i + 1);
            order.swap(i, j);
        }
        let active: Vec<usize> = order.into_iter().take(1 + seed as usize % families).collect();
        let xml = bank.document(&active, 1 + seed as usize % 4, seed as usize % 3);

        let mut pooled = IndexedBank::new(&bank.queries).unwrap();
        let mut fresh = IndexedBank::new_unpooled(&bank.queries).unwrap();
        let mut oracle = MultiFilter::new(&bank.queries).unwrap();
        let events = fx_xml::parse(&xml).unwrap();
        feed(&mut pooled, &events);
        feed(&mut fresh, &events);
        feed(&mut oracle, &events);
        prop_assert_eq!(pooled.results(), fresh.results(), "pooled vs fresh on {}", &xml);
        prop_assert_eq!(pooled.matching_queries(), fresh.matching_queries());
        prop_assert_eq!(pooled.results(), oracle.results(), "pooled vs naive on {}", &xml);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(64)))]

    /// Proptest-driven parity on generated (bank, document) pairs.
    #[test]
    fn indexed_parity_on_proptest_pairs(bi in 0..PROPTEST_BANKS.len(), seed in 0u64..100_000) {
        let queries: Vec<Query> = PROPTEST_BANKS[bi]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_document(&mut rng, &RandomDocConfig::default());
        let xml = d.to_xml();

        let mut ib = IndexedBank::new_reporting(&queries).unwrap();
        let compiled: Vec<CompiledQuery> = queries
            .iter()
            .map(|q| CompiledQuery::compile(q).unwrap())
            .collect();
        let mut mf = MultiFilter::from_compiled_reporting(compiled).unwrap();
        let mut got: Vec<Match> = Vec::new();
        let mut want: Vec<Match> = Vec::new();
        let spanned = fx_xml::parse_spanned(&xml).unwrap();
        let events = spanned.iter().map(|(event, span)| (event, *span));
        feed_to(&mut ib, events.clone(), &mut got);
        feed_to(&mut mf, events, &mut want);
        prop_assert_eq!(ib.results(), mf.results(), "verdicts on {}", xml);
        prop_assert_eq!(normalize(&got), normalize(&want), "matches on {}", xml);
    }
}

/// Adds `conjunct` to the predicate of `u`.
fn conjoin(q: &mut Query, u: QueryNodeId, conjunct: Expr) {
    let predicate = match q.predicate(u) {
        Some(p) => Expr::and(p.clone(), conjunct),
        None => conjunct,
    };
    q.set_predicate(u, predicate);
}

/// Breaks `q` by the fragment rules `mutations` selects, each at a node
/// the rng picks — bit 0: a disjunction; bit 1: a two-variable
/// comparison; bit 2: a value test on an internal node; bit 3: an
/// attribute output node.
fn mutate(q: &mut Query, mutations: u8, rng: &mut SmallRng) {
    let mut pick = |q: &Query| QueryNodeId(rng.gen_range(1..q.len() as u32));
    if mutations & 1 != 0 {
        let u = pick(q);
        let v = q.add_child(u, "or1");
        conjoin(
            q,
            u,
            Expr::Or(Box::new(Expr::Var(v)), Box::new(Expr::Var(v))),
        );
    }
    if mutations & 2 != 0 {
        let u = pick(q);
        let (a, b) = (q.add_child(u, "lhs"), q.add_child(u, "rhs"));
        conjoin(q, u, Expr::comp(CompOp::Eq, Expr::Var(a), Expr::Var(b)));
    }
    if mutations & 4 != 0 {
        let u = pick(q);
        let v = q.add_child(u, "inner");
        let w = q.add_child(v, "below");
        q.set_predicate(v, Expr::Var(w));
        conjoin(
            q,
            u,
            Expr::comp(CompOp::Gt, Expr::Var(v), Expr::Const(Value::Number(5.0))),
        );
    }
    if mutations & 8 != 0 {
        let out = q.output_node();
        let a = q.add_node(out, Axis::Attribute, NodeTest::Name("id".into()));
        q.set_successor(out, a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(64)))]

    /// `CompiledQuery::check` is the compiler's own check: on random
    /// redundancy-free queries, broken by any mix of the four rules, it
    /// returns exactly what `compile` (+ `reporting_supported`) returns
    /// — variant and node id. And a checked query always inserts: a
    /// bank compiles only residuals, and a checked query's residual
    /// compiles (its output path is a suffix of the query's, so it
    /// reports too), which every fresh, unpooled and reporting bank
    /// below does on its pool miss.
    #[test]
    fn the_check_is_the_compilers_check(seed in 0u64..1_000_000, mutations in 0u8..16) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut q = random_redundancy_free(&mut rng, &RandomQueryConfig::default());
        mutate(&mut q, mutations, &mut rng);
        let compiled = CompiledQuery::compile(&q);
        let filtering = compiled.as_ref().map(|_| ()).map_err(Clone::clone);
        let reporting = compiled.and_then(|c| c.reporting_supported());
        prop_assert_eq!(&CompiledQuery::check(&q, false), &filtering, "{:?}", &q);
        prop_assert_eq!(&CompiledQuery::check(&q, true), &reporting, "{:?}", &q);
        prop_assert_eq!(filtering.is_ok(), mutations & 0b111 == 0);
        prop_assert_eq!(reporting.is_ok(), mutations == 0);

        let at_zero = |r: &Result<(), _>| r.clone().map_err(|e| (0, e));
        let twice = [q.clone(), q];
        prop_assert_eq!(IndexedBank::new(&twice).map(|_| ()), at_zero(&filtering));
        prop_assert_eq!(IndexedBank::new_unpooled(&twice).map(|_| ()), at_zero(&filtering));
        prop_assert_eq!(IndexedBank::new_reporting(&twice).map(|_| ()), at_zero(&reporting));
    }
}
