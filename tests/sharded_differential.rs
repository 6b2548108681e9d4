//! Thread-parity differential: multi-core evaluation must be invisible
//! in the outputs. Document-sharded runs (`Engine::run_sharded` /
//! `select_sharded`) and bank-sharded runs (`Engine::run_bank_sharded`)
//! at 1/2/4/8 threads must produce verdicts, per-query match streams
//! (ordinals + source spans, normalized by document sequence), and
//! merged space statistics identical to the single-threaded engine —
//! on XMark corpora, the shared-prefix bank workload, and random
//! documents. The only sanctioned divergence is `peak_instances`,
//! which [`IndexSpaceStats::merge_sharded`] documents as an upper
//! bound (sum of per-shard peaks ≥ the joint peak).

use frontier_xpath::filter::{IndexSpaceStats, IndexedBank};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads as wl;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Case-count knob: CI pins a small count via `FX_PROPTEST_CASES`;
/// local runs omit it for the default or set it higher for coverage.
fn fx_cases(default: u32) -> u32 {
    std::env::var("FX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn xmark_corpus(docs: usize, scale: usize, seed: u64) -> Vec<String> {
    (0..docs)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed + i as u64);
            wl::auction_site(
                &mut rng,
                &wl::XmarkConfig {
                    items: 3 * scale,
                    auctions: 2 * scale,
                    people: 2 * scale,
                    category_depth: 3,
                },
            )
            .to_xml()
        })
        .collect()
}

/// Per-document match streams normalized to `(query, ordinal, span)`
/// triples in a canonical order — routing, duplication, loss, and span
/// corruption all fail loudly.
fn normalize(outcome: &Outcome, queries: usize) -> Vec<(usize, u64, u64, u64)> {
    let mut v: Vec<(usize, u64, u64, u64)> = (0..queries)
        .flat_map(|q| {
            outcome
                .matches(q)
                .iter()
                .map(move |m| (q, m.ordinal, m.span.start, m.span.end))
        })
        .collect();
    v.sort_unstable();
    v
}

/// Document sharding on a filtering engine: per-document verdict
/// vectors must equal a fresh single-threaded run of each document, at
/// every thread count.
#[test]
fn doc_sharded_filtering_matches_sequential_xmark() {
    let corpus = xmark_corpus(13, 2, 42);
    let engine = Engine::builder()
        .query_str("//item[price > 300]")
        .query_str("/site/people/person[name]")
        .query_str("//keyword")
        .query_str("/site/regions//item[payment]")
        .build()
        .unwrap();
    let reference: Vec<Vec<bool>> = corpus
        .iter()
        .map(|d| engine.run_str(d).unwrap().matched().to_vec())
        .collect();
    for &threads in THREAD_COUNTS {
        let sharded = engine.run_sharded(&corpus, threads).unwrap();
        assert_eq!(sharded.len(), corpus.len());
        for (i, v) in sharded.iter().enumerate() {
            assert_eq!(
                v.matched(),
                &reference[i][..],
                "doc {i} diverged at {threads} threads"
            );
        }
    }
}

/// Skewed document sizes: one document dwarfs the rest of the corpus,
/// the shape the claim-halving work-stealing loop exists for — an early
/// big claim must not strand the giant's neighbors on one thread, and
/// whichever thread draws the giant, verdicts and ordering must still
/// be exactly sequential. Small docs are heavily duplicated so claims
/// start well above one document per grab.
#[test]
fn doc_sharded_skewed_sizes_match_sequential() {
    let mut corpus = xmark_corpus(48, 1, 3);
    // One giant (~20× the small docs) buried mid-corpus.
    let giant = xmark_corpus(1, 24, 99).remove(0);
    corpus.insert(17, giant);
    let engine = Engine::builder()
        .query_str("//item[price > 300]")
        .query_str("/site/people/person[name]")
        .query_str("//keyword")
        .build()
        .unwrap();
    let reference: Vec<Vec<bool>> = corpus
        .iter()
        .map(|d| engine.run_str(d).unwrap().matched().to_vec())
        .collect();
    for &threads in THREAD_COUNTS {
        let sharded = engine.run_sharded(&corpus, threads).unwrap();
        assert_eq!(sharded.len(), corpus.len());
        for (i, v) in sharded.iter().enumerate() {
            assert_eq!(
                v.matched(),
                &reference[i][..],
                "skewed doc {i} diverged at {threads} threads"
            );
        }
    }
}

/// Document sharding on a selection engine: full per-document match
/// streams (ordinals + spans), keyed by the stable input order, must be
/// identical at every thread count.
#[test]
fn doc_sharded_selection_matches_sequential_xmark() {
    let corpus = xmark_corpus(9, 2, 7);
    let engine = Engine::builder()
        .query_str("//item[price > 300]/name")
        .query_str("/site/people/person/name")
        .query_str("//keyword")
        .mode(Mode::Select)
        .build()
        .unwrap();
    let queries = 3;
    let reference: Vec<Vec<(usize, u64, u64, u64)>> = corpus
        .iter()
        .map(|d| normalize(&engine.select_str(d).unwrap(), queries))
        .collect();
    for &threads in THREAD_COUNTS {
        let sharded = engine.select_sharded(&corpus, threads).unwrap();
        for (i, outcome) in sharded.iter().enumerate() {
            assert_eq!(
                normalize(outcome, queries),
                reference[i],
                "doc {i} match stream diverged at {threads} threads"
            );
        }
    }
}

/// Asserts the exactness contract of [`IndexSpaceStats::merge_sharded`]
/// against the unsharded reference (reporting-mode banks): everything
/// equal except `peak_instances`, which may only overshoot.
fn assert_stats_parity(merged: &IndexSpaceStats, reference: &IndexSpaceStats, ctx: &str) {
    assert_eq!(merged.shared_trie_bits, reference.shared_trie_bits, "{ctx}");
    assert_eq!(merged.residual_bits, reference.residual_bits, "{ctx}");
    assert_eq!(merged.total_bits, reference.total_bits, "{ctx}");
    assert_eq!(merged.peak_records, reference.peak_records, "{ctx}");
    assert_eq!(merged.activations, reference.activations, "{ctx}");
    assert_eq!(merged.events, reference.events, "{ctx}");
    assert_eq!(merged.groups, reference.groups, "{ctx}");
    assert_eq!(merged.residual_pool, reference.residual_pool, "{ctx}");
    assert!(
        merged.peak_instances >= reference.peak_instances,
        "{ctx}: summed per-shard peaks {} under the joint peak {}",
        merged.peak_instances,
        reference.peak_instances
    );
}

/// Runs one document through an unsharded reporting bank over `queries`
/// and returns its exact space stats — the reference the sharded merge
/// must reproduce.
fn unsharded_stats(queries: &[Query], xml: &str) -> IndexSpaceStats {
    let mut bank = IndexedBank::new_reporting(queries).unwrap();
    let mut sink = |_m: frontier_xpath::filter::Match| {};
    for (event, span) in frontier_xpath::xml::parse_spanned(xml).unwrap() {
        bank.process_to(&event, span, &mut sink);
    }
    bank.space_stats()
}

/// Bank sharding on the shared-prefix workload: verdicts, ordinals,
/// spans, and merged space stats against the single-threaded engine and
/// the unsharded bank, at every shard count.
#[test]
fn bank_sharded_matches_single_threaded_shared_prefix_bank() {
    let mut rng = SmallRng::seed_from_u64(0xBEC + 256);
    let bank = wl::random_shared_prefix_bank(
        &mut rng,
        &wl::SharedPrefixBankConfig {
            families: 16,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let xml = bank.document_repeated(&[0, 1, 5], 3, 6, 6);
    let engine = Engine::builder()
        .queries(bank.queries.iter().cloned())
        .mode(Mode::Select)
        .index(IndexPolicy::SharedPrefix)
        .build()
        .unwrap();
    let queries = bank.queries.len();
    let reference = engine.select_str(&xml).unwrap();
    let reference_matches = normalize(&reference, queries);
    let reference_stats = unsharded_stats(&bank.queries, &xml);

    for &shards in THREAD_COUNTS {
        let out = engine.run_bank_sharded(xml.as_bytes(), shards).unwrap();
        assert_eq!(out.shards(), shards);
        assert_eq!(
            out.matched(),
            reference.verdicts().matched(),
            "verdicts diverged at {shards} shards"
        );
        let mut got: Vec<(usize, u64, u64, u64)> = (0..queries)
            .flat_map(|q| {
                out.matches(q)
                    .iter()
                    .map(move |m| (q, m.ordinal, m.span.start, m.span.end))
            })
            .collect();
        got.sort_unstable();
        assert_eq!(
            got, reference_matches,
            "match streams diverged at {shards} shards"
        );
        assert_stats_parity(
            out.stats(),
            &reference_stats,
            &format!("space stats at {shards} shards"),
        );
    }
}

/// Reporting-supported query pool for the random-corpus properties:
/// shared prefixes, descendant hops, wildcards, predicates.
const POOL: &[&str] = &[
    "/a/b/c",
    "/a/b/c[x]",
    "/a/b//c",
    "//a/b",
    "//a//b[c]",
    "//a[b]/c",
    "/a[b and c]",
    "/a/*/b",
    "//b[a and .//c]",
    "//c",
];

fn pool_queries() -> Vec<Query> {
    POOL.iter().map(|s| parse_query(s).unwrap()).collect()
}

fn random_corpus(seed: u64, docs: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = wl::RandomDocConfig {
        max_depth: 6,
        max_children: 4,
        names: ["a", "b", "c", "x"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "1".into(), "3".into(), "6".into()],
    };
    (0..docs)
        .map(|_| wl::random_document(&mut rng, &cfg).to_xml())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(24)))]

    /// Random corpora through a document-sharded selection engine: the
    /// full per-document match stream is thread-count-invariant.
    #[test]
    fn doc_sharded_random_corpus_is_thread_invariant(seed in 0u64..1_000_000) {
        let corpus = random_corpus(seed, 11);
        let engine = Engine::builder()
            .queries(pool_queries())
            .mode(Mode::Select)
            .index(IndexPolicy::SharedPrefix)
            .build()
            .unwrap();
        let queries = POOL.len();
        let reference: Vec<Vec<(usize, u64, u64, u64)>> = corpus
            .iter()
            .map(|d| normalize(&engine.select_str(d).unwrap(), queries))
            .collect();
        for &threads in THREAD_COUNTS {
            let sharded = engine.select_sharded(&corpus, threads).unwrap();
            for (i, outcome) in sharded.iter().enumerate() {
                prop_assert_eq!(
                    normalize(outcome, queries),
                    reference[i].clone(),
                    "doc {} at {} threads (seed {:#x})", i, threads, seed
                );
            }
        }
    }

    /// Random documents through a bank-sharded engine: verdicts, match
    /// streams, and merged space stats are shard-count-invariant.
    #[test]
    fn bank_sharded_random_docs_are_shard_invariant(seed in 0u64..1_000_000) {
        let xml = random_corpus(seed, 1).remove(0);
        let queries = pool_queries();
        let engine = Engine::builder()
            .queries(queries.iter().cloned())
            .mode(Mode::Select)
            .index(IndexPolicy::SharedPrefix)
            .build()
            .unwrap();
        let reference = engine.select_str(&xml).unwrap();
        let reference_matches = normalize(&reference, queries.len());
        let reference_stats = unsharded_stats(&queries, &xml);
        for &shards in THREAD_COUNTS {
            let out = engine.run_bank_sharded(xml.as_bytes(), shards).unwrap();
            prop_assert_eq!(
                out.matched(),
                reference.verdicts().matched(),
                "verdicts at {} shards (seed {:#x})", shards, seed
            );
            let mut got: Vec<(usize, u64, u64, u64)> = (0..queries.len())
                .flat_map(|q| {
                    out.matches(q)
                        .iter()
                        .map(move |m| (q, m.ordinal, m.span.start, m.span.end))
                })
                .collect();
            got.sort_unstable();
            prop_assert_eq!(
                got,
                reference_matches.clone(),
                "match streams at {} shards (seed {:#x})", shards, seed
            );
            assert_stats_parity(
                out.stats(),
                &reference_stats,
                &format!("seed {seed:#x} at {shards} shards"),
            );
        }
    }

    /// `partition` after churn and compaction: the ownership mask is per
    /// group and compaction renumbers groups, so the shards of a bank
    /// that unsubscribed, re-subscribed and compacted must still merge
    /// to that bank's own verdicts, match stream and space stats.
    #[test]
    fn partition_of_a_churned_then_compacted_bank_merges_to_the_unsharded_bank(
        seed in 0u64..1_000_000,
    ) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let pool = pool_queries();
        let mut bank = IndexedBank::new_reporting(&pool).unwrap();
        for slot in 0..pool.len() {
            if slot == 0 || rng.gen_range(0..3u32) == 0 {
                prop_assert!(bank.unsubscribe(bank.subscription_of(slot).unwrap()));
            }
        }
        for _ in 0..rng.gen_range(0..4usize) {
            bank.subscribe(&pool[rng.gen_range(0..pool.len())]).unwrap();
        }
        prop_assert!(bank.compact());
        prop_assert_eq!(bank.len(), bank.live_subscriptions());

        let xml = random_corpus(seed, 1).remove(0);
        let events = frontier_xpath::xml::parse_spanned(&xml).unwrap();
        let feed = |bank: &mut IndexedBank| {
            let mut matches: Vec<(usize, u64, u64, u64)> = Vec::new();
            for (event, span) in &events {
                bank.process_to(event, *span, &mut |m: frontier_xpath::filter::Match| {
                    matches.push((m.query, m.ordinal, m.span.start, m.span.end))
                });
            }
            matches
        };
        let mut whole = bank.clone();
        let mut reference_matches = feed(&mut whole);
        reference_matches.sort_unstable();
        for &shards in THREAD_COUNTS {
            let mut got = Vec::new();
            let mut verdicts = vec![None; bank.len()];
            let mut stats = Vec::new();
            for mut shard in bank.partition(shards) {
                got.extend(feed(&mut shard));
                for (slot, verdict) in shard.results().into_iter().enumerate() {
                    if shard.owns_slot(slot) {
                        prop_assert_eq!(verdicts[slot].replace(verdict), None, "one owner per slot");
                    }
                }
                stats.push(shard.space_stats());
            }
            got.sort_unstable();
            let verdicts: Vec<Option<bool>> = verdicts.into_iter().flatten().collect();
            prop_assert_eq!(
                verdicts, whole.results(),
                "verdicts at {} shards (seed {:#x})", shards, seed
            );
            prop_assert_eq!(
                &got, &reference_matches,
                "match streams at {} shards (seed {:#x})", shards, seed
            );
            assert_stats_parity(
                &IndexSpaceStats::merge_sharded(&stats),
                &whole.space_stats(),
                &format!("churned bank, seed {seed:#x} at {shards} shards"),
            );
        }
    }
}

/// Sharding an engine without the shared-prefix index is a typed error,
/// not a silent fallback.
#[test]
fn bank_sharding_requires_the_index() {
    let engine = Engine::builder().query_str("//a").build().unwrap();
    assert!(matches!(
        engine.run_bank_sharded("<a/>".as_bytes(), 4),
        Err(EngineError::ShardingRequiresIndex)
    ));
}

/// Parse errors surface identically from sharded runs: the first
/// failing document in input order wins, as a sequential run would
/// report.
#[test]
fn doc_sharded_error_reporting_is_input_ordered() {
    let docs: Vec<&str> = vec!["<a/>", "<a><b></a>", "<a/>", "<unclosed>"];
    let engine = Engine::builder().query_str("/a").build().unwrap();
    for &threads in THREAD_COUNTS {
        let err = engine.run_sharded(&docs, threads).unwrap_err();
        let reference = engine.run_str("<a><b></a>").unwrap_err();
        assert_eq!(
            err, reference,
            "sharded run must surface doc 1's parse error first at {threads} threads"
        );
    }
}
