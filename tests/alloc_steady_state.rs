//! The zero-allocation guarantee of the interned event hot path: in
//! steady state — symbol table populated, scratch buffers warm — a
//! start/end element event performs **no heap allocation anywhere** on
//! the parse → intern → tag-dispatch path, for a single `StreamFilter`,
//! for the `IndexedBank`'s shared-trie walk, and for the HTML-soup and
//! JSON frontends feeding the same filter alike. And the guarantee that
//! spawning a second run over an indexed bank — a session, a clone —
//! costs the same handful of allocations at any bank size;
//! that a warm session retains no buffer of events; that no evaluator
//! holds a confirmed match, whether or not a sink takes it; that a server
//! subscription's mailbox costs what it holds, not its capacity; and
//! that churn over a known query form compiles nothing and waits for no
//! worker reply.
//!
//! Measured with a counting `#[global_allocator]`; this file holds a
//! single test so no sibling test thread can pollute the counters.

use frontier_xpath::engine::{Engine, IndexPolicy, Mode};
use frontier_xpath::filter::{CompiledQuery, IndexedBank, StreamFilter};
use frontier_xpath::html::HtmlParser;
use frontier_xpath::json::JsonParser;
use frontier_xpath::server::{Delivery, DisseminationServer, ServerConfig, Subscription};
use frontier_xpath::workloads::{
    auction_site, random_shared_prefix_bank, standing_queries, SharedPrefixBankConfig, XmarkConfig,
};
use frontier_xpath::xml::{Event, Span, StreamingParser, SymCache, SymEvent, Symbols};
use frontier_xpath::xpath::parse_query;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation made by *this thread*
/// (frees are irrelevant to the count: a path that frees must have
/// allocated) and the bytes this thread holds live. The counters are
/// thread-local so harness/watchdog threads cannot pollute the
/// measurement, and const-initialized so reading them inside the
/// allocator never recurses into allocation. Live bytes are also summed
/// over the whole process, for memory that one thread allocates and
/// another frees (a server worker fills a mailbox, its subscriber
/// drains it), and so are calls, for work a server worker does on a
/// handle's behalf.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

static PROCESS_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// One allocating call that leaves `grown` more bytes live.
fn bump(grown: i64) {
    // TLS may be unavailable during thread teardown; skip counting then.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    live(grown);
}

fn live(delta: i64) {
    let _ = THREAD_LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
    PROCESS_LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

fn live_bytes() -> i64 {
    THREAD_LIVE_BYTES.with(|c| c.get())
}

fn process_live_bytes() -> i64 {
    PROCESS_LIVE_BYTES.load(Ordering::Relaxed)
}

fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Pins a closure to the higher-ranked `for<'a> FnMut(SymEvent<'a>, _)`
/// signature `feed_interned` expects (bound-to-a-variable closures
/// otherwise infer one concrete lifetime).
fn emitter<F: for<'a> FnMut(SymEvent<'a>, Span)>(f: F) -> F {
    f
}

#[test]
fn interned_hot_path_allocates_nothing_per_element_in_steady_state() {
    // --- Single filter: parse + filter over one endless document. ----
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/r/i[@a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut parser = StreamingParser::with_symbols(Arc::clone(&symbols));

    // One repeating body chunk: a start tag with an attribute, text, an
    // end tag — the tag-dispatch steady state.
    let chunk = r#"<i a="1">x</i><j/>"#;
    let mut count = 0u64;
    {
        let mut emit = emitter(|ev, span| {
            filter.process_sym(ev, span);
            count += 1;
        });
        parser.feed_interned("<r>", &mut emit).unwrap();
        // Warm-up: interns every name, grows every scratch buffer and
        // frontier/table capacity to its steady footprint.
        for _ in 0..64 {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }

    let before = allocations();
    let steady = 1000u64;
    {
        let mut emit = emitter(|ev, span| {
            filter.process_sym(ev, span);
            count += 1;
        });
        for _ in 0..steady {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert!(count > 5 * steady, "events flowed: {count}");
    assert_eq!(
        after - before,
        0,
        "parse+filter start/end element dispatch must not allocate in \
         steady state ({} allocations over {steady} chunks)",
        after - before
    );

    // The stream stays live and correct: close it out and check the
    // verdict (every <i> carries @a).
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    parser.feed_interned("</r>", &mut emit).unwrap();
    parser.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- Indexed bank: shared-trie dispatch with dormant groups. -----
    // None of the prefixes matches the document, so the whole bank
    // stays on the trie walk — the per-event cost the index promises.
    let queries: Vec<_> = [
        "/site/regions/asia/item[price > 10]",
        "/site/regions/europe/item[price > 10]",
        "/site/categories/category/name",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    let mut bank = IndexedBank::new(&queries).unwrap();
    let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols()));
    let sink = &mut |_: frontier_xpath::filter::Match| {};
    {
        let mut emit = emitter(|ev, span| bank.process_sym_to(ev, span, sink));
        parser.feed_interned("<r>", &mut emit).unwrap();
        for _ in 0..64 {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| bank.process_sym_to(ev, span, sink));
        for _ in 0..steady {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "indexed-bank trie dispatch must not allocate in steady state \
         ({} allocations over {steady} chunks)",
        after - before
    );

    // --- HTML-soup frontend: tokenize + recover + filter. ------------
    // The chunk exercises the soup hot path: an attributed start tag,
    // text, an explicit end tag, and a void element.
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/ul/li[@a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut html = HtmlParser::with_symbols(Arc::clone(&symbols));
    let chunk = r#"<li a="1">x</li><wbr>"#;
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        html.feed_interned("<ul>", &mut emit).unwrap();
        for _ in 0..64 {
            html.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        for _ in 0..steady {
            html.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "html soup tokenize+filter must not allocate in steady state \
         ({} allocations over {steady} chunks)",
        after - before
    );
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    html.feed_interned("</ul>", &mut emit).unwrap();
    html.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- JSON frontend: lex + map-to-elements + filter. --------------
    // Repeated members of the root object: object values become
    // elements, string and number scalars become text.
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/json/i[a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut json = JsonParser::with_symbols(Arc::clone(&symbols));
    let chunk = r#""i":{"a":"x","n":17},"#;
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        json.feed_interned("{", &mut emit).unwrap();
        for _ in 0..64 {
            json.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        for _ in 0..steady {
            json.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "json lex+map+filter must not allocate in steady state \
         ({} allocations over {steady} chunks)",
        after - before
    );
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    json.feed_interned("}", &mut emit).unwrap();
    json.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- Byte feed: SWAR structural scan + UTF-8 carry. --------------
    // The raw-byte surface layers chunk UTF-8 validation, the carry for
    // scalars split across reads, and the structural-index scan on top
    // of the same drain — none of which may allocate once the index
    // vector has grown to the chunk's delimiter count. Every iteration
    // cuts the chunk mid-multibyte-character so the carry is exercised
    // on the hot path, not just at boundaries.
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/r/i[@a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut parser = StreamingParser::with_symbols(Arc::clone(&symbols));
    let chunk = "<i a=\"1\">caf\u{e9}\u{2022}</i><j/>".as_bytes();
    let cut = 13; // one byte into the 2-byte `é`
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        parser.feed_interned_bytes(b"<r>", &mut emit).unwrap();
        for _ in 0..64 {
            parser
                .feed_interned_bytes(&chunk[..cut], &mut emit)
                .unwrap();
            parser
                .feed_interned_bytes(&chunk[cut..], &mut emit)
                .unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        for _ in 0..steady {
            parser
                .feed_interned_bytes(&chunk[..cut], &mut emit)
                .unwrap();
            parser
                .feed_interned_bytes(&chunk[cut..], &mut emit)
                .unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "byte feed (utf-8 carry + structural scan) must not allocate in \
         steady state ({} allocations over {steady} chunks)",
        after - before
    );
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    parser.feed_interned_bytes(b"</r>", &mut emit).unwrap();
    parser.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- Batch fill → replay → clear over a shared view. -------------
    // A lookup-only parser resolves names lock-free, events are copied
    // into an `EventBatch`, then replayed through a consumer scratch
    // buffer into an indexed bank. After warm-up grows the batch arenas
    // and the bank's trie scratch, the fill → replay → clear cycle must
    // be allocation-free: `clear()` retains capacity, so a recycled
    // batch never re-allocates.
    let queries: Vec<_> = [
        "/site/regions/asia/item[price > 10]",
        "/site/regions/europe/item[price > 10]",
        "/site/categories/category/name",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    let mut bank = IndexedBank::new(&queries).unwrap();
    let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols())).lookup_only();
    let mut batch = frontier_xpath::xml::EventBatch::new();
    let mut scratch = frontier_xpath::xml::AttrBuf::new();
    let chunk = r#"<i a="1">x</i><j/>"#;
    let sink = &mut |_: frontier_xpath::filter::Match| {};
    {
        let mut emit = emitter(|ev, span| batch.push(&ev, span));
        parser.feed_interned("<r>", &mut emit).unwrap();
        for _ in 0..64 {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    batch.replay(&mut scratch, |ev, span| bank.process_sym_to(ev, span, sink));
    batch.clear();
    let before = allocations();
    for _ in 0..steady {
        {
            let mut emit = emitter(|ev, span| batch.push(&ev, span));
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
        batch.replay(&mut scratch, |ev, span| bank.process_sym_to(ev, span, sink));
        batch.clear();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "lookup-only parse → batch fill → replay into an indexed bank must \
         not allocate in steady state ({} allocations over {steady} cycles)",
        after - before
    );

    // --- Batched drain: `drive_batched` → `process_batch_to`. --------
    // The path to a consumer that replays a run or sits on another
    // thread: the parser fills its recycled `EventBatch` from reader
    // chunks and the bank walks each batch in one call. After warm-up grows the
    // batch arena, the io chunk, and the banks' scratch, a whole
    // drive — thousands of events, several batch hand-offs — must not
    // allocate at all: `clear()` retains arena capacity and
    // `process_batch_to` hoists its scratch out of the event loop.
    let queries: Vec<_> = ["/r/i[@a]", "/r/j"]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let mut bank = frontier_xpath::filter::MultiFilter::new(&queries).unwrap();
    // One shared table so one parse feeds both banks.
    let mut indexed = IndexedBank::new_with_symbols(&queries, Arc::clone(bank.symbols())).unwrap();
    let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols())).lookup_only();
    // >BATCH_EVENTS events per document, so every drive spans several
    // batch hand-offs.
    let doc = format!("<r>{}</r>", r#"<i a="1">x</i><j/>"#.repeat(400));
    let sink = &mut |_: frontier_xpath::filter::Match| {};
    let mut batches = 0u64;
    for _ in 0..4 {
        parser.reset();
        parser
            .drive_batched(doc.as_bytes(), &mut |b| {
                bank.process_batch_to(b, sink);
                indexed.process_batch_to(b, sink);
            })
            .unwrap();
    }
    let before = allocations();
    let drives = 32u64;
    for _ in 0..drives {
        parser.reset();
        parser
            .drive_batched(doc.as_bytes(), &mut |b| {
                batches += 1;
                bank.process_batch_to(b, sink);
                indexed.process_batch_to(b, sink);
            })
            .unwrap();
    }
    let after = allocations();
    assert!(batches > drives, "each drive spans several batches");
    assert_eq!(
        after - before,
        0,
        "batched drive (parse → EventBatch → bank batch walk) must not \
         allocate in steady state ({} allocations over {drives} drives)",
        after - before
    );
    assert_eq!(bank.results(), vec![Some(true), Some(true)]);

    // --- Per-event drive: `drive` → `process_sym_to`. ------------------
    // What the session and the server worker ride: the same read loop
    // with no batch in it — each event goes to the banks as the
    // tokenizer completes it, borrowed from the io chunk. Nothing is
    // left to warm up but the banks' own per-event scratch.
    let mut events = 0u64;
    let mut drive = |events: &mut u64| {
        parser.reset();
        parser
            .drive(doc.as_bytes(), &mut |ev: SymEvent<'_>, span| {
                *events += 1;
                bank.process_sym_to(ev, span, sink);
                indexed.process_sym_to(ev, span, sink);
            })
            .unwrap();
    };
    drive(&mut events);
    let (before, per_drive) = (allocations(), events);
    for _ in 0..drives {
        drive(&mut events);
    }
    let after = allocations();
    assert!(per_drive > 2000 && events == (drives + 1) * per_drive);
    assert_eq!(
        after - before,
        0,
        "per-event drive (parse → bank, no batch) must not allocate in \
         steady state ({} allocations over {drives} drives)",
        after - before
    );
    assert_eq!(bank.results(), vec![Some(true), Some(true)]);
    assert_eq!(indexed.results(), vec![Some(true), Some(true)]);

    // --- Product path: the engine's reader entry points. --------------
    // What `fxgrep` and `Engine::run_str` take. A document costs a
    // fixed handful of allocations (the `Verdicts` it returns) however
    // many element events, candidates and matches it holds: the
    // session's one drive loop hands the filters borrowed events, never
    // owned ones; a leaf value test keeps its buffer offset inline and
    // compares the borrowed string; the reporter recycles its candidate
    // frames. Every shape below has candidates that grow with the scale
    // — value-restricted leaves (`price > 300`, `current > 500`) in the
    // standing queries, and under `//regions//name` a pending buffer
    // that holds every `name` until `regions` closes.
    let xmark = |scale: usize| {
        let mut rng = SmallRng::seed_from_u64(42);
        let cfg = XmarkConfig {
            items: 10 * scale,
            auctions: 6 * scale,
            people: 5 * scale,
            category_depth: 4,
        };
        auction_site(&mut rng, &cfg).to_xml()
    };
    let (small, large) = (xmark(1), xmark(8));
    assert!(large.len() > 4 * small.len());
    let one = |src: &str| vec![parse_query(src).unwrap()];
    let standing = || standing_queries().into_iter().map(|(_, q)| q).collect();
    let shapes: [(Mode, Vec<_>); 5] = [
        (Mode::Filter, one("//category[@id]/name")),
        (
            Mode::Filter,
            one("//open_auction[bidder and current > 980]"),
        ),
        (Mode::Select, one("//category[@id]/name")),
        (Mode::Select, standing()),
        (Mode::Select, one("//regions//name")),
    ];
    for (mode, queries) in shapes {
        let label = format!("{mode:?} × {} queries", queries.len());
        let engine = Engine::builder()
            .queries(queries)
            .mode(mode)
            .build()
            .unwrap();
        let mut session = engine.session();
        let mut delivered = 0u64;
        let mut per_doc = |xml: &str| {
            let before = allocations();
            for _ in 0..4 {
                if mode == Mode::Select {
                    let sink = &mut |_: frontier_xpath::filter::Match| delivered += 1;
                    session.run_reader_to(xml.as_bytes(), sink).unwrap();
                } else {
                    session.run_reader(xml.as_bytes()).unwrap();
                }
            }
            (allocations() - before) / 4
        };
        per_doc(&large); // warm-up grows every buffer
        let (on_small, on_large) = (per_doc(&small), per_doc(&large));
        assert_eq!(
            on_small, on_large,
            "{label}: allocations grew with the document"
        );
        assert!(
            on_large < 32,
            "{label}: {on_large} allocations per document"
        );
        assert_eq!(
            delivered > 0,
            mode == Mode::Select,
            "{label}: matches reached the sink"
        );
    }

    // --- Retained heap: the buffer is gone. ---------------------------
    // The paper's machine keeps `O(FS(Q)·log d)` *bits* between events;
    // what a warm session keeps besides is an 8 KiB io chunk, the
    // structural index of one chunk, a name memo and — selecting — the
    // reporter's buffers. Not a run of events: half a megabyte of
    // documents leaves no arena sized by what passed through.
    let docs: Vec<String> = (1..=16).map(xmark).collect();
    assert!(docs.iter().map(String::len).sum::<usize>() > 400_000);
    let retained: [(Mode, IndexPolicy, Vec<_>, i64); 3] = [
        (
            Mode::Filter,
            IndexPolicy::None,
            one("//category[@id]/name"),
            64 << 10,
        ),
        (
            Mode::Filter,
            IndexPolicy::SharedPrefix,
            standing(),
            96 << 10,
        ),
        (Mode::Select, IndexPolicy::None, standing(), 160 << 10),
    ];
    for (mode, policy, queries, limit) in retained {
        let engine = Engine::builder()
            .queries(queries)
            .mode(mode)
            .index(policy)
            .build()
            .unwrap();
        let before = live_bytes();
        let mut session = engine.session();
        for xml in &docs {
            let sink = &mut |_: frontier_xpath::filter::Match| {};
            session.run_reader_to(xml.as_bytes(), sink).unwrap();
        }
        let held = live_bytes() - before;
        assert!(
            (1..limit).contains(&held),
            "{mode:?} × {policy:?} × {} queries: a warm session holds {held} B (limit {limit})",
            session.len()
        );
    }

    // --- Confirmed matches: handed over, never held. --------------------
    // Selection's only unavoidable extra memory is the *unresolved*
    // candidates (the paper's follow-up \[5\]); every `<b>` of
    // `<a><b/>…</a>` resolves at its own close, so what an evaluator
    // holds after the document must not grow with the number of `<b>`s
    // — not behind a sink-less session entry point, not in a bare
    // reporting filter fed without a sink. The reader's session is
    // first warmed by a match-free document of the same size, so the
    // tokenizer's chunk-sized buffers have grown before the measure.
    fn held<T>(run: impl FnOnce() -> T) -> i64 {
        let before = live_bytes();
        let kept = std::hint::black_box(run());
        let held = live_bytes() - before;
        drop(kept);
        held
    }
    let engine = Engine::builder()
        .query_str("//b")
        .mode(Mode::Select)
        .build()
        .unwrap();
    let compiled = CompiledQuery::compile(&parse_query("//b").unwrap()).unwrap();
    let mut names = SymCache::new();
    let (a, b) = (
        names.lookup(compiled.symbols(), "a"),
        names.lookup(compiled.symbols(), "b"),
    );
    let held_by = |n: usize| {
        let document = |tag: &str| format!("<a>{}</a>", format!("<{tag}/>").repeat(n));
        let (warm_up, xml) = (document("c"), document("b"));
        let mut session = engine.session();
        session.run_reader(warm_up.as_bytes()).unwrap();
        let reader = held(|| session.run_reader(xml.as_bytes()).unwrap());
        let pushed = held(|| {
            let mut session = engine.session();
            session.push(&Event::StartDocument);
            session.push(&Event::start("a"));
            for _ in 0..n {
                session.push(&Event::start("b"));
                session.push(&Event::end("b"));
            }
            session.push(&Event::end("a"));
            session.push(&Event::EndDocument);
            assert_eq!(session.finish().unwrap().matched(), &[true]);
            session
        });
        let bare = held(|| {
            let mut filter = StreamFilter::from_compiled_reporting(compiled.clone()).unwrap();
            let start = |name| SymEvent::StartElement {
                name,
                attributes: &[],
            };
            filter.process_sym(SymEvent::StartDocument, Span::EMPTY);
            filter.process_sym(start(a), Span::EMPTY);
            for _ in 0..n {
                filter.process_sym(start(b), Span::EMPTY);
                filter.process_sym(SymEvent::EndElement { name: b }, Span::EMPTY);
            }
            filter.process_sym(SymEvent::EndElement { name: a }, Span::EMPTY);
            filter.process_sym(SymEvent::EndDocument, Span::EMPTY);
            assert_eq!(filter.result(), Some(true));
            filter
        });
        [reader, pushed, bare]
    };
    let (small, large) = (held_by(1_000), held_by(100_000));
    for (what, i) in [
        "Session::run_reader",
        "Session::push",
        "StreamFilter::process_sym",
    ]
    .into_iter()
    .zip(0..)
    {
        assert!(
            large[i] <= small[i],
            "{what} on a selection: {} B held after 1 000 matches, {} B after 100 000",
            small[i],
            large[i]
        );
    }

    // --- Spawn cost: a session, a clone. --------------------------------
    // An indexed bank is an index (what the subscriptions are, shared
    // behind one `Arc`) and a run (where the document is): a second run
    // over the same queries copies the run and bumps a refcount, so its
    // allocation count does not move with the number of subscriptions.
    fn counted<T>(spawn: impl FnOnce() -> T) -> u64 {
        let before = allocations();
        let spawned = std::hint::black_box(spawn());
        let calls = allocations() - before;
        drop(spawned);
        calls
    }
    let spawn_costs = |families: usize| {
        let cfg = SharedPrefixBankConfig {
            families,
            queries_per_family: 16,
            ..SharedPrefixBankConfig::default()
        };
        let queries = random_shared_prefix_bank(&mut SmallRng::seed_from_u64(7), &cfg).queries;
        let engine = |mode| {
            Engine::builder()
                .queries(queries.clone())
                .mode(mode)
                .index(IndexPolicy::SharedPrefix)
                .build()
                .unwrap()
        };
        let (filtering, selecting) = (engine(Mode::Filter), engine(Mode::Select));
        let bank = IndexedBank::new(&queries).unwrap();
        assert_eq!(bank.len(), 16 * families);
        [
            counted(|| filtering.session()),
            counted(|| selecting.session()),
            counted(|| bank.clone()),
        ]
    };
    let costs = [4, 16, 64].map(spawn_costs);
    for (what, i) in ["filter session", "select session", "bank clone"]
        .into_iter()
        .zip(0..)
    {
        let [small, medium, large] = costs.map(|c| c[i]);
        assert!(
            small == medium && medium == large && large <= 16,
            "{what}: {small} / {medium} / {large} allocations at 64 / 256 / 1024 queries"
        );
    }

    // --- Server mailboxes: a subscription costs what it holds. ---------
    // A mailbox is bounded by `mailbox_capacity` unread matches but
    // allocates only for matches actually queued, so sixteen idle
    // subscriptions that may each lag by 65 536 matches hold nothing
    // like 16 × 65 536 slots (64 MiB if preallocated). The workers
    // allocate on their own threads: these readings are process-wide,
    // taken while every worker is parked after a `stats()` barrier.
    let server = DisseminationServer::start(ServerConfig {
        mailbox_capacity: 65_536,
        ..ServerConfig::default()
    });
    let handle = server.handle();
    handle.stats().unwrap();
    let before = process_live_bytes();
    let subs: Vec<Subscription> = (0..16)
        .map(|i| {
            handle
                .subscribe(parse_query(&format!("//a{i}")).unwrap())
                .unwrap()
        })
        .collect();
    handle.stats().unwrap();
    let grown = process_live_bytes() - before;
    assert!(
        grown < 1 << 20,
        "16 subscriptions at mailbox_capacity 65 536 hold {grown} B"
    );

    // A backlog's memory goes as the subscriber drains it: what is left
    // is at most the one block of slots the channel keeps current (std's
    // unbounded channel links blocks of 31 slots, each a `Delivery` and
    // a state word). A warm-up round grows the worker's per-document
    // buffers to this document's match count first.
    let block = 32 * (std::mem::size_of::<Delivery>() + std::mem::size_of::<usize>()) as i64;
    let backlog = 1_000;
    let doc = format!("<r>{}</r>", "<a0/>".repeat(backlog));
    let drain = |sub: &Subscription| std::iter::from_fn(|| sub.try_recv()).count();
    handle.publish_str(&doc).unwrap();
    handle.stats().unwrap();
    assert_eq!(drain(&subs[0]), backlog);
    let start = process_live_bytes();
    handle.publish_str(&doc).unwrap();
    handle.stats().unwrap();
    let held = process_live_bytes() - start;
    assert!(
        held > (backlog * std::mem::size_of::<Delivery>()) as i64,
        "a backlog of {backlog} deliveries holds only {held} B"
    );
    assert_eq!(drain(&subs[0]), backlog);
    let left = process_live_bytes() - start;
    assert!(
        left.abs() <= block,
        "a drained mailbox still holds {left} B (one block is {block} B)"
    );

    // --- Churn over a known form: checked, never compiled. -------------
    // A subscribe whose canonical form the bank already holds joins its
    // group: the check builds nothing, and nothing is compiled. The
    // fewest calls over a few subscribes, so a slot table's amortized
    // growth does not count.
    let known = parse_query("/site/regions//item[price > 400]/name").unwrap();
    let mut bank = IndexedBank::new_reporting(std::slice::from_ref(&known)).unwrap();
    let builds = bank.residual_builds();
    let fewest = (0..8)
        .map(|_| counted(|| bank.subscribe(&known).unwrap()))
        .min()
        .unwrap();
    assert_eq!(bank.residual_builds(), builds);
    assert!(
        fewest <= BANK_KNOWN_SUBSCRIBE,
        "a known-form subscribe makes {fewest} allocation calls (limit {BANK_KNOWN_SUBSCRIBE})"
    );

    // A warm server's subscribe + unsubscribe pair of a known form: the
    // handle decides both and waits for no reply, and each worker's bank
    // compiles nothing. Counted process-wide through a barrier, less
    // what the barrier alone costs.
    let barrier = || {
        let before = process_allocations();
        handle.stats().unwrap();
        process_allocations() - before
    };
    let pair = || {
        let query = parse_query("//a3").unwrap();
        let before = process_allocations();
        let sub = handle.subscribe(query).unwrap();
        assert!(handle.unsubscribe(sub.id()).unwrap());
        drop(sub);
        handle.stats().unwrap();
        process_allocations() - before
    };
    let fewest = (0..8).map(|_| pair() - barrier()).min().unwrap();
    assert!(
        fewest <= SERVER_KNOWN_PAIR,
        "a server churn pair makes {fewest} allocation calls (limit {SERVER_KNOWN_PAIR})"
    );
    assert_eq!(server.shutdown().deliveries, 2 * backlog as u64);
}

/// Allocation calls of a known-form `IndexedBank::subscribe`.
const BANK_KNOWN_SUBSCRIBE: u64 = 37;
/// Allocation calls of a warm server's known-form subscribe +
/// unsubscribe pair, both sides of the thread hand-off together.
const SERVER_KNOWN_PAIR: u64 = 9;
