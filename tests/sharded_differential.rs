//! Thread-parity differential: multi-core evaluation must be invisible
//! in the outputs. Document-sharded runs (`Engine::run_sharded` /
//! `select_sharded`) at 1/2/4/8 threads must produce verdicts and
//! per-query match streams (ordinals + source spans, normalized by
//! document sequence) identical to the single-threaded engine — on XMark
//! corpora and random documents.

use frontier_xpath::prelude::*;
use frontier_xpath::workloads as wl;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::{fx_cases, normalize_outcome};

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
        .map(|d| normalize_outcome(&engine.select_str(d).unwrap(), queries))
        .collect();
    for &threads in THREAD_COUNTS {
        let sharded = engine.select_sharded(&corpus, threads).unwrap();
        for (i, outcome) in sharded.iter().enumerate() {
            assert_eq!(
                normalize_outcome(outcome, queries),
                reference[i],
                "doc {i} match stream diverged at {threads} threads"
            );
        }
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
            .map(|d| normalize_outcome(&engine.select_str(d).unwrap(), queries))
            .collect();
        for &threads in THREAD_COUNTS {
            let sharded = engine.select_sharded(&corpus, threads).unwrap();
            for (i, outcome) in sharded.iter().enumerate() {
                prop_assert_eq!(
                    normalize_outcome(outcome, queries),
                    reference[i].clone(),
                    "doc {} at {} threads (seed {:#x})", i, threads, seed
                );
            }
        }
    }
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
