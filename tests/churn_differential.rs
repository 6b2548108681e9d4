//! Churn differential: an `IndexedBank` that lived through an arbitrary
//! interleaving of subscribe / unsubscribe / compact / document ops must
//! be observationally equivalent — per-subscription boolean verdicts
//! *and* routed match streams (ordinal + source span) — to a bank built
//! from scratch over the surviving queries. On top of parity, the suite
//! pins the no-rebuild guarantee: once every canonical residual form in
//! the op pool has been seen, `residual_builds()` never moves again, no
//! matter how the bank churns.

use frontier_xpath::filter::{IndexedBank, SubscriptionId};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    random_document, random_shared_prefix_bank, RandomDocConfig, SharedPrefixBankConfig,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{feed_to, fx_cases, normalize, normalize_routed};

/// The subscription pool: reporting-supported shapes sharing prefixes
/// and canonical residual forms, so churn exercises trie extension,
/// group revival, pool reuse, and cross-group residual sharing.
const POOL: &[&str] = &[
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

fn pool_queries() -> Vec<Query> {
    POOL.iter().map(|s| parse_query(s).unwrap()).collect()
}

/// Feeds `xml` through the churned bank and a from-scratch bank over the
/// surviving queries; asserts verdict and match-stream equivalence.
fn assert_doc_parity(churned: &mut IndexedBank, live: &[(SubscriptionId, Query)], xml: &str) {
    let surviving: Vec<Query> = live.iter().map(|(_, q)| q.clone()).collect();
    let mut fresh = IndexedBank::new_reporting(&surviving).unwrap();
    let mut got: Vec<Match> = Vec::new();
    let mut want: Vec<Match> = Vec::new();
    let spanned = fx_xml::parse_spanned(xml).unwrap();
    let events = spanned.iter().map(|(event, span)| (event, *span));
    feed_to(churned, events.clone(), &mut got);
    feed_to(&mut fresh, events, &mut want);
    // Translate churned slots to positions in the surviving list.
    let mut slot_to_pos: Vec<Option<usize>> = vec![None; churned.len()];
    for (pos, (id, _)) in live.iter().enumerate() {
        let slot = churned
            .slot_of(*id)
            .expect("live subscription must resolve to a slot");
        slot_to_pos[slot] = Some(pos);
    }
    let churned_results = churned.results();
    let fresh_results = fresh.results();
    for (pos, (id, q)) in live.iter().enumerate() {
        let slot = churned.slot_of(*id).unwrap();
        assert_eq!(
            churned_results[slot], fresh_results[pos],
            "verdict of {q:?} ({id}) after churn, on {xml}"
        );
    }
    assert_eq!(
        normalize_routed(&got, &slot_to_pos),
        normalize(&want),
        "match streams diverged on {xml}"
    );
}

/// One churn scenario: a seeded random walk over subscribe (from the
/// pool), unsubscribe (random churned id), explicit compact, and
/// document ops, with parity checked against a from-scratch bank at
/// every document and once more at the end.
///
/// One subscription per pool form stays pinned for the whole walk, so
/// every canonical residual keeps a live user. That is the steady-state
/// regime the flat-`residual_builds()` guarantee covers: a form whose
/// last subscriber leaves has its pooled residual reclaimed at the next
/// compaction, and re-subscribing it later legitimately compiles once.
fn run_churn_case(seed: u64) {
    let pool = pool_queries();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut bank = IndexedBank::new_reporting(&[]).unwrap();

    let pinned: Vec<(SubscriptionId, Query)> = pool
        .iter()
        .map(|q| (bank.subscribe(q).unwrap(), q.clone()))
        .collect();
    let mut extras: Vec<(SubscriptionId, Query)> = Vec::new();
    let builds_at_steady_state = bank.residual_builds();

    let doc_cfg = RandomDocConfig {
        max_depth: 6,
        max_children: 4,
        names: ["a", "b", "c", "x"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "1".into(), "3".into(), "6".into()],
    };
    let live = |pinned: &[(SubscriptionId, Query)], extras: &[(SubscriptionId, Query)]| {
        pinned.iter().chain(extras).cloned().collect::<Vec<_>>()
    };
    let ops = 12 + (seed as usize % 12);
    for _ in 0..ops {
        match rng.gen_range(0..10u32) {
            // Subscribe a pool query (repeats deliberate: duplicate
            // members and group revival are the interesting paths).
            0..=3 => {
                let q = &pool[rng.gen_range(0..pool.len())];
                let id = bank.subscribe(q).unwrap();
                extras.push((id, q.clone()));
            }
            // Unsubscribe a random churned subscription.
            4..=5 => {
                if !extras.is_empty() {
                    let (id, _) = extras.swap_remove(rng.gen_range(0..extras.len()));
                    assert!(bank.unsubscribe(id), "{id} was live");
                }
            }
            // Explicit compaction (a no-op when nothing is tombstoned).
            6 => {
                bank.compact();
            }
            // Stream a document and differential-check it.
            _ => {
                let xml = random_document(&mut rng, &doc_cfg).to_xml();
                assert_doc_parity(&mut bank, &live(&pinned, &extras), &xml);
            }
        }
        assert_eq!(
            bank.residual_builds(),
            builds_at_steady_state,
            "steady-state churn recompiled a residual (seed {seed:#x})"
        );
    }
    // Always close with a compaction and one more differential document,
    // so every case checks the post-compaction routing too.
    bank.compact();
    let xml = random_document(&mut rng, &doc_cfg).to_xml();
    assert_doc_parity(&mut bank, &live(&pinned, &extras), &xml);
    assert_eq!(bank.residual_builds(), builds_at_steady_state);
}

/// One clone scenario: a bank that has streamed a document is cloned —
/// the two share one index — and then only one of the pair churns
/// (subscribes over known forms and a form of its own, unsubscribes,
/// compacts). The churning side takes its own copy of the index: the
/// other one's slot count, subscriptions, last verdicts and
/// `residual_builds()` stay what they were and its next document reads
/// like a from-scratch bank's over the unchanged queries, while the
/// churned side equals a from-scratch bank over its survivors. Run once
/// churning the clone and once churning the source.
fn run_clone_case(seed: u64, churn_the_clone: bool) {
    let pool = pool_queries();
    let mut rng = SmallRng::seed_from_u64(seed);
    let doc_cfg = RandomDocConfig {
        max_depth: 6,
        max_children: 4,
        names: ["a", "b", "c", "x"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "1".into(), "3".into(), "6".into()],
    };
    let mut source = IndexedBank::new_reporting(&[]).unwrap();
    let resident: Vec<(SubscriptionId, Query)> = pool
        .iter()
        .filter(|_| rng.gen_range(0..4u32) > 0)
        .map(|q| (source.subscribe(q).unwrap(), q.clone()))
        .collect();
    let xml = random_document(&mut rng, &doc_cfg).to_xml();
    assert_doc_parity(&mut source, &resident, &xml);

    let mut clone = source.clone();
    let (churned, kept) = if churn_the_clone {
        (&mut clone, &mut source)
    } else {
        (&mut source, &mut clone)
    };
    let observe = |bank: &IndexedBank| {
        (
            bank.len(),
            bank.live_subscriptions(),
            bank.residual_builds(),
            bank.results(),
        )
    };
    let before = observe(kept);

    let mut live = resident.clone();
    for _ in 0..rng.gen_range(1..4usize) {
        let q = &pool[rng.gen_range(0..pool.len())];
        live.push((churned.subscribe(q).unwrap(), q.clone()));
    }
    // A canonical form only the churned side ever hears of: its build
    // count moves, the other's must not.
    let (novel, builds) = (
        parse_query("/a/b[x > 4]//c").unwrap(),
        churned.residual_builds(),
    );
    live.push((churned.subscribe(&novel).unwrap(), novel));
    assert_eq!(churned.residual_builds(), builds + 1, "seed {seed:#x}");
    for _ in 0..rng.gen_range(1..4usize) {
        let (id, _) = live.swap_remove(rng.gen_range(0..live.len()));
        assert!(churned.unsubscribe(id), "{id} was live");
    }
    assert!(churned.compact(), "tombstones to fold (seed {seed:#x})");
    assert_eq!(observe(kept), before, "seed {seed:#x}");

    let xml = random_document(&mut rng, &doc_cfg).to_xml();
    assert_doc_parity(kept, &resident, &xml);
    assert_doc_parity(churned, &live, &xml);
    assert_eq!(kept.residual_builds(), before.2, "seed {seed:#x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(48)))]

    /// The acceptance-criteria property: any op interleaving leaves the
    /// bank equivalent to a from-scratch build over the survivors, with
    /// `residual_builds()` flat throughout.
    #[test]
    fn churned_bank_matches_from_scratch_bank(seed in 0u64..1_000_000) {
        run_churn_case(seed);
    }

    /// Clones share an index, never a fate: churn on either side of a
    /// clone is invisible on the other.
    #[test]
    fn churn_on_one_side_of_a_clone_leaves_the_other_untouched(seed in 0u64..1_000_000) {
        run_clone_case(seed, true);
        run_clone_case(seed, false);
    }
}

/// A deterministic long walk (independent of proptest's case budget):
/// heavier churn, enough to cross the automatic compaction threshold.
#[test]
fn long_churn_walk_with_auto_compaction() {
    let pool = pool_queries();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut bank = IndexedBank::new_reporting(&[]).unwrap();
    let pinned: Vec<(SubscriptionId, Query)> = pool
        .iter()
        .map(|q| (bank.subscribe(q).unwrap(), q.clone()))
        .collect();
    let mut extras: Vec<(SubscriptionId, Query)> = Vec::new();
    let builds = bank.residual_builds();
    let doc_cfg = RandomDocConfig {
        max_depth: 5,
        max_children: 3,
        names: ["a", "b", "c", "x"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "3".into(), "6".into()],
    };
    for round in 0..40 {
        // Churn burst: a wave of subscribes and unsubscribes on top of
        // the pinned resident set.
        for _ in 0..6 {
            let q = &pool[rng.gen_range(0..pool.len())];
            extras.push((bank.subscribe(q).unwrap(), q.clone()));
        }
        for _ in 0..6 {
            if !extras.is_empty() {
                let (id, _) = extras.swap_remove(rng.gen_range(0..extras.len()));
                assert!(bank.unsubscribe(id));
            }
        }
        let all: Vec<_> = pinned.iter().chain(&extras).cloned().collect();
        let xml = random_document(&mut rng, &doc_cfg).to_xml();
        assert_doc_parity(&mut bank, &all, &xml);
        assert_eq!(bank.residual_builds(), builds, "round {round}");
    }
    assert!(
        bank.compactions() > 0,
        "40 rounds of burst churn must cross the auto-compaction threshold"
    );

    // The same guarantee at dissemination scale: a warm 1024-query
    // shared-prefix bank through 4 waves of duplicate half the bank /
    // stream / retire the duplicates / explicit compact.
    let mut rng = SmallRng::seed_from_u64(0xC0DE + 1024);
    let family = random_shared_prefix_bank(
        &mut rng,
        &SharedPrefixBankConfig {
            families: 64,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let xml = family.document(&[0, 1], 4, 8);
    let mut bank = IndexedBank::new_reporting(&[]).unwrap();
    let subscribe_first = |bank: &mut IndexedBank, n: usize| -> Vec<(SubscriptionId, Query)> {
        let subscribe = |q: &Query| (bank.subscribe(q).unwrap(), q.clone());
        family.queries[..n].iter().map(subscribe).collect()
    };
    let resident = subscribe_first(&mut bank, 1024);
    let builds = bank.residual_builds();
    for wave in 0..4 {
        let duplicates = subscribe_first(&mut bank, 512);
        let all: Vec<_> = resident.iter().chain(&duplicates).cloned().collect();
        assert_doc_parity(&mut bank, &all, &xml);
        for (id, _) in duplicates {
            assert!(bank.unsubscribe(id));
        }
        bank.compact();
        assert_eq!(bank.residual_builds(), builds, "wave {wave}");
    }
    assert_doc_parity(&mut bank, &resident, &xml);
}
