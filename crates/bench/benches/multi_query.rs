//! Experiment E11: multi-query dissemination — throughput vs. the number
//! of concurrently registered queries, for the naive per-query bank and
//! the shared-prefix indexed bank.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fx_core::{CompiledResidual, IndexedBank, MultiFilter};
use fx_engine::{Engine, IndexPolicy};
use fx_workloads as wl;
use fx_xpath::Query;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_bank_sizes(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1101);
    let doc = wl::auction_site(&mut rng, &wl::XmarkConfig::default());
    let events = doc.to_events();
    let mut group = c.benchmark_group("multi_query");
    for n in [1usize, 16, 128] {
        let cfg = wl::RandomQueryConfig {
            max_nodes: 6,
            ..Default::default()
        };
        let queries: Vec<Query> = (0..n)
            .map(|_| wl::random_redundancy_free(&mut rng, &cfg))
            .collect();
        group.throughput(Throughput::Elements((events.len() * n) as u64));
        // The bare bank (with verdict-decided short-circuiting)…
        group.bench_with_input(BenchmarkId::new("multifilter", n), &queries, |b, qs| {
            let mut bank = MultiFilter::new(qs).unwrap();
            b.iter(|| {
                for e in &events {
                    bank.process(e);
                }
                // Iterator form: the fan-out count without allocating a
                // Vec<usize> per document on the hot path.
                bank.matching().count()
            });
        });
        // …vs the canonical engine session (which runs the same
        // short-circuiting bank under the hood, plus session bookkeeping).
        group.bench_with_input(BenchmarkId::new("engine-session", n), &queries, |b, qs| {
            let engine = Engine::builder()
                .queries(qs.iter().cloned())
                .build()
                .unwrap();
            let mut session = engine.session();
            b.iter(|| {
                for e in &events {
                    session.push(e);
                }
                session.finish().unwrap().matching().count()
            });
        });
        // …and the selection bank: same documents, but every confirmed
        // match is routed to a (counting) sink — the full-fledged
        // dissemination path.
        group.bench_with_input(BenchmarkId::new("engine-select", n), &queries, |b, qs| {
            let engine = Engine::builder()
                .queries(qs.iter().cloned())
                .mode(fx_engine::Mode::Select)
                .build()
                .unwrap();
            let mut session = engine.session();
            b.iter(|| {
                let mut delivered = 0usize;
                for e in &events {
                    session.push_spanned_to(e, fx_xml::Span::EMPTY, &mut |_m: fx_engine::Match| {
                        delivered += 1
                    });
                }
                session.finish().unwrap();
                delivered
            });
        });
    }
    group.finish();
}

/// The indexed series: overlapping query families (16 queries per
/// shared prefix) against documents that activate only a couple of
/// families. The naive bank pays Θ(n) per event; the indexed bank pays
/// for the shared trie plus the activated families only, so per-event
/// work grows sublinearly as the bank goes 1 → 16 → 128 → 1024.
fn bench_shared_prefix_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_query_indexed");
    for n in [1usize, 16, 128, 1024] {
        let mut rng = SmallRng::seed_from_u64(0xBEC + n as u64);
        let families = (n / 16).max(1);
        let bank = wl::random_shared_prefix_bank(
            &mut rng,
            &wl::SharedPrefixBankConfig {
                families,
                queries_per_family: n.min(16),
                prefix_depth: 3,
                cross_family_tails: false,
            },
        );
        assert_eq!(bank.len(), n);
        let active: Vec<usize> = (0..families.min(2)).collect();
        let xml = bank.document(&active, 4, 8);
        let events = fx_xml::parse(&xml).unwrap();
        group.throughput(Throughput::Elements((events.len() * n) as u64));
        group.bench_with_input(BenchmarkId::new("naive", n), &bank.queries, |b, qs| {
            let mut mf = MultiFilter::new(qs).unwrap();
            b.iter(|| {
                for e in &events {
                    mf.process(e);
                }
                mf.matching().count()
            });
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &bank.queries, |b, qs| {
            let mut ib = IndexedBank::new(qs).unwrap();
            b.iter(|| {
                for e in &events {
                    ib.process(e);
                }
                ib.matching().count()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("engine-indexed", n),
            &bank.queries,
            |b, qs| {
                let engine = Engine::builder()
                    .queries(qs.iter().cloned())
                    .index(IndexPolicy::SharedPrefix)
                    .build()
                    .unwrap();
                let mut session = engine.session();
                b.iter(|| {
                    for e in &events {
                        session.push(e);
                    }
                    session.finish().unwrap().matching().count()
                });
            },
        );
        // End-to-end: the same indexed session driven straight from
        // bytes through `run_reader`, i.e. parse + intern + index in one
        // loop (the zero-copy interned path — no owned `Event` is ever
        // materialized). The pre-parsed series above stays for
        // comparability; the gap between the two is the parse cost.
        group.bench_with_input(
            BenchmarkId::new("engine-indexed-reader", n),
            &bank.queries,
            |b, qs| {
                let engine = Engine::builder()
                    .queries(qs.iter().cloned())
                    .index(IndexPolicy::SharedPrefix)
                    .build()
                    .unwrap();
                let mut session = engine.session();
                b.iter(|| {
                    session
                        .run_reader(xml.as_bytes())
                        .unwrap()
                        .matching()
                        .count()
                });
            },
        );
    }
    group.finish();
}

/// The space + activation-rate series for the shared-prefix family: the
/// same workload as [`bench_shared_prefix_index`], but reporting the
/// paper's *memory* axis — total peak logical bits, indexed vs naive —
/// plus how often the index actually spawns per-query state. Printed
/// once (criterion times throughput; this series is about bits, which
/// don't need repetition). The 1024-query row is asserted: the indexed
/// bank's total must sit below the naive bank's, or the index has
/// stopped earning its keep on its own workload.
fn report_space_series(_c: &mut Criterion) {
    println!(
        "space: multi_query_indexed — total peak bits, indexed vs naive \
         (shared-prefix family, 2 active families)"
    );
    for n in [16usize, 128, 1024] {
        let mut rng = SmallRng::seed_from_u64(0xBEC + n as u64);
        let families = (n / 16).max(1);
        let bank = wl::random_shared_prefix_bank(
            &mut rng,
            &wl::SharedPrefixBankConfig {
                families,
                queries_per_family: n.min(16),
                prefix_depth: 3,
                cross_family_tails: false,
            },
        );
        let active: Vec<usize> = (0..families.min(2)).collect();
        let xml = bank.document(&active, 4, 8);
        let events = fx_xml::parse(&xml).unwrap();
        let builds_before = CompiledResidual::total_builds();
        let mut ib = IndexedBank::new(&bank.queries).unwrap();
        let builds = CompiledResidual::total_builds() - builds_before;
        let mut mf = MultiFilter::new(&bank.queries).unwrap();
        for e in &events {
            ib.process(e);
            mf.process(e);
        }
        let stats = ib.space_stats();
        println!(
            "space: n={n:<4} naive_bits={:<7} indexed_bits={:<7} \
             (trie {} + residuals {})  activations/event={:.4}  \
             residual_builds={builds} for {} groups",
            mf.total_max_bits(),
            stats.total_bits,
            stats.shared_trie_bits,
            stats.residual_bits,
            stats.activation_rate(),
            stats.groups,
        );
        assert_eq!(
            builds, stats.residual_pool as u64,
            "one compiled-residual build per canonical form"
        );
        if n == 1024 {
            assert!(
                stats.total_bits < mf.total_max_bits(),
                "indexed total ({}) must undercut naive total ({}) at n=1024",
                stats.total_bits,
                mf.total_max_bits()
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3));
    targets = report_space_series, bench_bank_sizes, bench_shared_prefix_index
}
criterion_main!(benches);
