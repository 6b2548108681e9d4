//! Experiment E10: filtering throughput — the Õ(|D|·|Q|·r) time claim of
//! Theorem 8.8, the engine comparison on linear and twig queries, and
//! the **byte-throughput (MB/s) series** over the full parse→filter
//! pipeline: parse-only, parse + one filter, and parse + a 1024-query
//! indexed bank, each on the symbol-interned zero-copy surface
//! (`feed_interned` → `SymEvent`) per event and per `EventBatch`,
//! plus `html/*` and `json/*` MB/s series for the non-XML frontends.
//! The measured numbers live in `BENCH_throughput.json` at the repo
//! root, the perf trajectory later PRs measure against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fx_automata::{BufferingFilter, LazyDfaFilter, NfaFilter};
use fx_core::{CompiledQuery, IndexedBank, StreamFilter};
use fx_engine::Engine;
use fx_workloads as wl;
use fx_xml::StreamingParser;
use fx_xpath::parse_query;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn xmark_events(scale: usize) -> Vec<fx_xml::Event> {
    let mut rng = SmallRng::seed_from_u64(42);
    wl::auction_site(
        &mut rng,
        &wl::XmarkConfig {
            items: 10 * scale,
            auctions: 6 * scale,
            people: 5 * scale,
            category_depth: 4,
        },
    )
    .to_events()
}

/// Engines on a twig query over XMark-lite documents of growing size.
fn bench_twig_engines(c: &mut Criterion) {
    let q = parse_query("//item[price > 300]").unwrap();
    let mut group = c.benchmark_group("throughput/twig");
    for scale in [1usize, 4, 16] {
        let events = xmark_events(scale);
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::new("frontier", scale), &events, |b, ev| {
            let mut f = StreamFilter::new(&q).unwrap();
            b.iter(|| {
                f.process_all(ev);
                f.result()
            });
        });
        group.bench_with_input(BenchmarkId::new("buffer-all", scale), &events, |b, ev| {
            let mut f = BufferingFilter::new(&q);
            b.iter(|| f.run_stream(ev));
        });
        // The new canonical surface: a reused engine session fed event
        // by event, to keep its overhead over bare StreamFilter honest.
        group.bench_with_input(
            BenchmarkId::new("engine-session", scale),
            &events,
            |b, ev| {
                let engine = Engine::builder().query(q.clone()).build().unwrap();
                let mut session = engine.session();
                b.iter(|| {
                    for e in ev {
                        session.push(e);
                    }
                    session.finish().unwrap().any()
                });
            },
        );
    }
    group.finish();
}

/// Engines on a linear query (where all four compete).
fn bench_linear_engines(c: &mut Criterion) {
    let q = parse_query("/site/regions/asia/item").unwrap();
    let events = xmark_events(4);
    let mut group = c.benchmark_group("throughput/linear");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("frontier", |b| {
        let mut f = StreamFilter::new(&q).unwrap();
        b.iter(|| {
            f.process_all(&events);
            f.result()
        });
    });
    group.bench_function("nfa", |b| {
        let mut f = NfaFilter::new(&q).unwrap();
        b.iter(|| f.run_stream(&events));
    });
    group.bench_function("lazy-dfa", |b| {
        let mut f = LazyDfaFilter::new(&q).unwrap();
        b.iter(|| f.run_stream(&events));
    });
    group.finish();
}

/// Time scaling with recursion depth r (the r factor of Thm 8.8).
fn bench_recursion_scaling(c: &mut Criterion) {
    let q = parse_query("//a[b and c]").unwrap();
    let mut group = c.benchmark_group("throughput/recursion");
    for r in [1usize, 16, 64] {
        let events = wl::nested("a", r, "<b/><c/>").to_events();
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(r), &events, |b, ev| {
            let mut f = StreamFilter::new(&q).unwrap();
            b.iter(|| {
                f.process_all(ev);
                f.result()
            });
        });
    }
    group.finish();
}

/// Time scaling with query size |Q|.
fn bench_query_size_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput/query_size");
    let events = xmark_events(2);
    for k in [2usize, 8, 32] {
        let q = wl::star(k);
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &events, |b, ev| {
            let mut f = StreamFilter::new(&q).unwrap();
            b.iter(|| {
                f.process_all(ev);
                f.result()
            });
        });
    }
    group.finish();
}

/// The xmark document as a byte stream, for the MB/s series.
fn xmark_xml(scale: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(42);
    wl::auction_site(
        &mut rng,
        &wl::XmarkConfig {
            items: 10 * scale,
            auctions: 6 * scale,
            people: 5 * scale,
            category_depth: 4,
        },
    )
    .to_xml()
}

/// MB/s over the full pipeline on the interned zero-copy path (names
/// interned to `Sym`s, payloads borrowed from parser scratch — no
/// per-event allocation in steady state), fused per event and through
/// the batch boundary.
///
/// * `parse-only` — tokenize + event assembly, events dropped.
/// * `parse+filter` — one `//item[price > 300]` frontier filter.
/// * `parse+indexed-1024` — a 1024-query shared-prefix bank.
fn bench_byte_throughput(c: &mut Criterion) {
    let xml = xmark_xml(4);
    let mut group = c.benchmark_group("bytes");
    group.throughput(Throughput::Bytes(xml.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("parse-only", "interned"),
        &xml,
        |b, xml| {
            // One shared table across iterations: steady state, as a
            // long-running session would run.
            let symbols = Arc::new(fx_xml::Symbols::new());
            b.iter(|| {
                let mut p = StreamingParser::with_symbols(Arc::clone(&symbols));
                let mut n = 0usize;
                p.feed_interned(xml, &mut |_e, _s| n += 1).unwrap();
                p.finish_interned(&mut |_e, _s| n += 1).unwrap();
                n
            });
        },
    );

    // The batch-native surface: the parser's recycled `EventBatch` fed
    // straight from the byte stream (`drive_batched`), the consumer
    // crossed once per ~1024 events instead of once per event. The
    // parser persists across iterations (`reset` keeps every buffer
    // warm) — the steady state a long-lived session runs in.
    group.bench_with_input(
        BenchmarkId::new("batched-parse-only", "interned"),
        &xml,
        |b, xml| {
            let symbols = Arc::new(fx_xml::Symbols::new());
            let mut p = StreamingParser::with_symbols(Arc::clone(&symbols));
            b.iter(|| {
                let mut n = 0usize;
                p.reset();
                p.drive_batched(xml.as_bytes(), &mut |batch| n += batch.len())
                    .unwrap();
                n
            });
        },
    );

    let q = parse_query("//item[price > 300]").unwrap();
    group.bench_with_input(
        BenchmarkId::new("parse+filter", "interned"),
        &xml,
        |b, xml| {
            let symbols = Arc::new(fx_xml::Symbols::new());
            let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
            let mut f = StreamFilter::from_compiled(compiled);
            b.iter(|| {
                let mut p = StreamingParser::with_symbols(Arc::clone(&symbols));
                p.feed_interned(xml, &mut |e, s| f.process_sym(e, s))
                    .unwrap();
                p.finish_interned(&mut |e, s| f.process_sym(e, s)).unwrap();
                f.result()
            });
        },
    );

    // Same pipeline through the batch boundary: `drive_batched` fills
    // the parser's recycled batch, the filter walks it per call
    // (`process_batch` + one drain), nothing allocates per event.
    group.bench_with_input(
        BenchmarkId::new("batched-parse+filter", "interned"),
        &xml,
        |b, xml| {
            let symbols = Arc::new(fx_xml::Symbols::new());
            let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
            let mut f = StreamFilter::from_compiled(compiled);
            let mut p = StreamingParser::with_symbols(Arc::clone(&symbols));
            let mut scratch = fx_xml::AttrBuf::new();
            b.iter(|| {
                p.reset();
                p.drive_batched(xml.as_bytes(), &mut |batch| {
                    f.process_batch(batch, &mut scratch)
                })
                .unwrap();
                f.result()
            });
        },
    );

    // The 1024-query indexed bank over its own shared-prefix workload
    // (two active families), parsed from bytes each iteration.
    let mut rng = SmallRng::seed_from_u64(0xBEC + 1024);
    let bank_queries = wl::random_shared_prefix_bank(
        &mut rng,
        &wl::SharedPrefixBankConfig {
            families: 64,
            queries_per_family: 16,
            prefix_depth: 3,
            cross_family_tails: false,
        },
    );
    let bank_xml = bank_queries.document_repeated(&[0, 1], 4, 8, 8);
    group.throughput(Throughput::Bytes(bank_xml.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("parse+indexed-1024", "interned"),
        &bank_xml,
        |b, xml| {
            let mut ib = IndexedBank::new(&bank_queries.queries).unwrap();
            let symbols = Arc::clone(ib.symbols());
            b.iter(|| {
                let mut p = StreamingParser::with_symbols(Arc::clone(&symbols));
                let sink = &mut |_m: fx_core::Match| {};
                p.feed_interned(xml, &mut |e, s| ib.process_sym_to(e, s, sink))
                    .unwrap();
                p.finish_interned(&mut |e, s| ib.process_sym_to(e, s, sink))
                    .unwrap();
                ib.matching().count()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched-parse+indexed-1024", "interned"),
        &bank_xml,
        |b, xml| {
            let mut ib = IndexedBank::new(&bank_queries.queries).unwrap();
            let symbols = Arc::clone(ib.symbols());
            let mut p = StreamingParser::with_symbols(symbols);
            b.iter(|| {
                p.reset();
                let sink = &mut |_m: fx_core::Match| {};
                p.drive_batched(xml.as_bytes(), &mut |batch| {
                    ib.process_batch_to(batch, sink)
                })
                .unwrap();
                ib.matching().count()
            });
        },
    );
    group.finish();
}

/// MB/s for the non-XML frontends over their generated corpora: the
/// soup tokenizer and the JSON lexer alone (interned events dropped),
/// and end-to-end through a filtering engine session (`run_source`,
/// lookup-only table shared with the compiled query).
///
/// Corpora are many small documents rather than one large one — the
/// shape these frontends are for (scraped pages, record streams) — so
/// the rows also price per-document reset and verdict turnaround.
fn bench_frontend_throughput(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let soup_cfg = wl::HtmlSoupConfig {
        max_depth: 7,
        max_children: 6,
        quirkiness: 0.5,
    };
    let html_docs: Vec<String> = wl::html_soup_corpus(&mut rng, &soup_cfg, 64)
        .into_iter()
        .map(|d| d.html)
        .collect();
    let html_bytes: u64 = html_docs.iter().map(|d| d.len() as u64).sum();

    let mut group = c.benchmark_group("html");
    group.throughput(Throughput::Bytes(html_bytes));
    group.bench_with_input(
        BenchmarkId::new("tokenize", "interned"),
        &html_docs,
        |b, docs| {
            let symbols = Arc::new(fx_xml::Symbols::new());
            let mut p = fx_html::HtmlParser::with_symbols(Arc::clone(&symbols));
            b.iter(|| {
                let mut n = 0usize;
                for d in docs {
                    p.reset();
                    p.feed_interned(d, &mut |_e, _s| n += 1).unwrap();
                    p.finish_interned(&mut |_e, _s| n += 1).unwrap();
                }
                n
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("filter", "engine"),
        &html_docs,
        |b, docs| {
            let engine = Engine::builder().query_str("//li[p]").build().unwrap();
            let mut session = engine.session();
            let mut src = engine.html_source();
            b.iter(|| {
                let mut matched = 0usize;
                for d in docs {
                    matched += session.run_source(&mut src, d.as_bytes()).unwrap().any() as usize;
                }
                matched
            });
        },
    );
    group.finish();

    let record_cfg = wl::JsonRecordsConfig {
        max_depth: 5,
        max_members: 5,
        max_items: 4,
        messiness: 0.3,
    };
    let json_docs: Vec<String> = wl::json_records(&mut rng, &record_cfg, 128)
        .into_iter()
        .map(|r| r.json)
        .collect();
    let json_bytes: u64 = json_docs.iter().map(|d| d.len() as u64).sum();

    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(json_bytes));
    group.bench_with_input(
        BenchmarkId::new("tokenize", "interned"),
        &json_docs,
        |b, docs| {
            let symbols = Arc::new(fx_xml::Symbols::new());
            let mut p = fx_json::JsonParser::with_symbols(Arc::clone(&symbols));
            b.iter(|| {
                let mut n = 0usize;
                for d in docs {
                    p.reset();
                    p.feed_interned(d, &mut |_e, _s| n += 1).unwrap();
                    p.finish_interned(&mut |_e, _s| n += 1).unwrap();
                }
                n
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("filter", "engine"),
        &json_docs,
        |b, docs| {
            let engine = Engine::builder().query_str("//user[name]").build().unwrap();
            let mut session = engine.session();
            let mut src = engine.json_source();
            b.iter(|| {
                let mut matched = 0usize;
                for d in docs {
                    matched += session.run_source(&mut src, d.as_bytes()).unwrap().any() as usize;
                }
                matched
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_byte_throughput, bench_frontend_throughput, bench_twig_engines, bench_linear_engines, bench_recursion_scaling, bench_query_size_scaling
}
criterion_main!(benches);
