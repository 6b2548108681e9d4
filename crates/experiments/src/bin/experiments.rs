//! The experiment harness: regenerates every table and figure of the
//! paper's results (experiments E1–E12; the `fx-experiments` row of
//! README's crate map), plus the multi-core `scale` series. Throughput of the product paths is
//! `fxbench`'s job (`BENCHMARK.json`); nothing here is a benchmark.
//!
//! Usage:
//!   cargo run --release -p fx-experiments --bin experiments           # all
//!   cargo run --release -p fx-experiments --bin experiments -- e2 e9  # subset

use fx_analysis::{frontier_size, redundancy_free};
use fx_automata::{BufferingFilter, LazyDfaFilter, NfaFilter};
use fx_core::{Match, MultiFilter, StreamFilter};
use fx_engine::Engine;
use fx_lowerbounds::{
    depth_bound, disj_segments, frontier_bound, probe, probe_fooling_set, sets_intersect,
};
use fx_workloads as wl;
use fx_xml::{AttrBuf, Event, Span, SymCache};
use fx_xpath::{parse_query, to_xpath, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("frontier-xpath experiment harness");
    println!("(paper: Bar-Yossef, Fontoura, Josifovski — PODS 2004 / JCSS 2007)\n");

    if want("e1") {
        e1_frontier_simple();
    }
    if want("e2") {
        e2_recursion();
    }
    if want("e3") {
        e3_depth();
    }
    if want("e4") {
        e4_frontier_general();
    }
    if want("e5") {
        e5_recursion_general();
    }
    if want("e6") {
        e6_depth_general();
    }
    if want("e7") {
        e7_example_run();
    }
    if want("e8") {
        e8_space_sweeps();
    }
    if want("e9") {
        e9_dfa_blowup();
    }
    if want("e10") {
        e10_throughput();
    }
    if want("e11") {
        e11_multi_query();
    }
    if want("e12") {
        e12_full_eval_overhead();
    }
    if want("scale") && !scale() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Measures throughput (events/second) of a filter's `process` over a
/// pre-materialized stream, repeated until at least `min_duration` elapses.
fn throughput(mut process: impl FnMut(&Event), events: &[Event], min_duration: Duration) -> f64 {
    let start = Instant::now();
    let mut processed = 0u64;
    while start.elapsed() < min_duration {
        for e in events {
            process(e);
        }
        processed += events.len() as u64;
    }
    processed as f64 / start.elapsed().as_secs_f64()
}

/// Renders a ratio like "12.5x" with a sensible precision.
fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        return "∞".to_string();
    }
    let r = a as f64 / b as f64;
    if r >= 10.0 {
        format!("{r:.0}x")
    } else {
        format!("{r:.1}x")
    }
}

// ---------------------------------------------------------------------------

fn e1_frontier_simple() {
    header(
        "E1",
        "Theorem 4.2 — query frontier size (fixed query, Figs. 3-4)",
    );
    let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
    let fb = frontier_bound(&q, None).unwrap();
    let report = fb.fooling.verify(&q).unwrap();
    let probe_report = probe_fooling_set(|| StreamFilter::new(&q).unwrap(), &fb.fooling);
    println!(
        "query                      FS(Q)  |S|  diag  cross  LB bits  filter states  filter bits"
    );
    println!(
        "{:<26} {:>5}  {:>3}  {:>4}  {:>5}  {:>7}  {:>13}  {:>11}",
        "/a[c[.//e and f] and b>5]",
        frontier_size(&q),
        report.size,
        report.diagonal_checked,
        report.cross_checked,
        report.bits,
        probe_report.classes,
        probe_report.bits
    );
    println!("shape check: filter is forced into exactly 2^FS(Q) states — the bound is tight.\n");
}

fn e2_recursion() {
    header(
        "E2",
        "Theorem 4.5 — recursion depth, DISJ reduction (Fig. 5)",
    );
    let q = parse_query("//a[b and c]").unwrap();
    let seg = disj_segments(&q).unwrap();
    println!(
        "{:>4}  {:>10}  {:>8}  {:>13}  {:>12}",
        "r", "LB states", "LB bits", "probe states", "filter bits"
    );
    for r in [2usize, 4, 6, 8] {
        let all: Vec<Vec<bool>> = (0..1usize << r)
            .map(|m| (0..r).map(|i| m >> i & 1 == 1).collect())
            .collect();
        let prefixes: Vec<Vec<Event>> = all.iter().map(|s| seg.alpha(s)).collect();
        let suffixes: Vec<Vec<Event>> = all.iter().map(|t| seg.beta(t)).collect();
        let report = probe(|| StreamFilter::new(&q).unwrap(), &prefixes, &suffixes);
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&seg.document(&vec![true; r], &vec![false; r]));
        println!(
            "{r:>4}  {:>10}  {:>8}  {:>13}  {:>12}",
            1usize << r,
            r,
            report.classes,
            f.stats().max_bits
        );
    }
    // The filter-memory side for large r (linear growth).
    println!("\nfilter memory on D_s,t (Θ(r) rows):");
    println!("{:>6}  {:>8}  {:>12}", "r", "rows", "bits");
    for r in [16usize, 64, 256, 1024, 4096] {
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&seg.document(&vec![true; r], &vec![false; r]));
        println!(
            "{r:>6}  {:>8}  {:>12}",
            f.stats().max_rows,
            f.stats().max_bits
        );
    }
    println!("shape check: probe states = 2^r exactly; filter bits grow linearly in r.\n");
}

fn e3_depth() {
    header("E3", "Theorem 4.6 — document depth (Fig. 6)");
    let q = parse_query("/a/b").unwrap();
    let db = depth_bound(&q).unwrap();
    println!(
        "{:>6}  {:>10}  {:>8}  {:>13}  {:>12}",
        "d", "LB states", "LB bits", "probe states", "filter bits"
    );
    for d in [4usize, 16, 64, 256, 1024, 4096] {
        let fooling = db.fooling_set(d.min(256)); // verification is O(t²)
        let report = fooling.verify(&q).unwrap();
        let probe_t = d.min(64);
        let prefixes: Vec<Vec<Event>> = (0..probe_t).map(|i| db.alpha_i(i)).collect();
        let suffixes: Vec<Vec<Event>> = (0..probe_t)
            .map(|i| {
                let mut s = db.beta_i(i);
                s.extend(db.gamma_i(i));
                s
            })
            .collect();
        let probed = probe(|| StreamFilter::new(&q).unwrap(), &prefixes, &suffixes);
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&db.document(d - 1));
        println!(
            "{d:>6}  {:>10}  {:>8}  {:>13}  {:>12}",
            report.size,
            report.bits,
            probed.classes,
            f.stats().max_bits
        );
    }
    println!(
        "shape check: filter bits grow by ~2 per 4x depth (logarithmic), matching Ω(log d).\n"
    );
}

fn e4_frontier_general() {
    header(
        "E4",
        "Theorem 7.1 — general frontier bound on random redundancy-free queries",
    );
    let mut rng = SmallRng::seed_from_u64(7001);
    let cfg = wl::RandomQueryConfig {
        max_nodes: 10,
        ..Default::default()
    };
    println!(
        "{:<44}  {:>5}  {:>4}  {:>8}  {:>8}",
        "query", "FS(Q)", "|S|", "verified", "LB bits"
    );
    for _ in 0..10 {
        let q = wl::random_redundancy_free(&mut rng, &cfg);
        assert!(redundancy_free(&q).is_empty());
        let fb = frontier_bound(&q, Some(64)).unwrap();
        let report = fb
            .fooling
            .verify(&q)
            .expect("Theorem 7.1 construction verifies");
        let mut src = to_xpath(&q);
        src.truncate(44);
        println!(
            "{src:<44}  {:>5}  {:>4}  {:>8}  {:>8}",
            frontier_size(&q),
            report.size,
            "ok",
            report.bits
        );
    }
    println!("shape check: every fooling set verifies; LB bits = FS(Q) when uncapped.\n");
}

fn e5_recursion_general() {
    header(
        "E5",
        "Theorem 7.4 — general recursion bound on Recursive-XPath queries (Figs. 10-15)",
    );
    let mut rng = SmallRng::seed_from_u64(7002);
    println!(
        "{:<30}  {:>4}  {:>7}  {:>9}",
        "query", "r", "checks", "verified"
    );
    for src in [
        "//a[b and c]",
        "//d[f and a[b and c]]",
        "//x//a[b and c and d]",
        "//a[b > 7 and c]",
        "/r//q[m and n]",
    ] {
        let q = parse_query(src).unwrap();
        let seg = disj_segments(&q).unwrap();
        let r = 5;
        let mut checks = 0;
        for _ in 0..40 {
            let s: Vec<bool> = (0..r).map(|_| rng.gen_bool(0.5)).collect();
            let t: Vec<bool> = (0..r).map(|_| rng.gen_bool(0.5)).collect();
            let events = seg.document(&s, &t);
            let doc = fx_dom::Document::from_sax(&events).unwrap();
            assert_eq!(
                fx_eval::bool_eval(&q, &doc).unwrap(),
                sets_intersect(&s, &t),
                "{src}"
            );
            checks += 1;
        }
        println!("{src:<30}  {r:>4}  {checks:>7}  {:>9}", "ok");
    }
    println!("shape check: D_s,t matches Q iff the sets intersect — for every query.\n");
}

fn e6_depth_general() {
    header("E6", "Theorem 7.14 — general depth bound (Figs. 16-19)");
    println!(
        "{:<36}  {:>4}  {:>9}  {:>8}",
        "query", "|S|", "verified", "LB bits"
    );
    for src in [
        "//a/b",
        "/r/a/b[c]",
        "/a[c[.//e and f] and b > 5]",
        "//d[f and a[b and c]]",
    ] {
        let q = parse_query(src).unwrap();
        let db = depth_bound(&q).unwrap();
        let report = db
            .fooling_set(16)
            .verify(&q)
            .expect("Theorem 7.14 construction verifies");
        println!(
            "{src:<36}  {:>4}  {:>9}  {:>8}",
            report.size, "ok", report.bits
        );
    }
    println!("shape check: every D_i matches, every D_i,j crossing fails.\n");
}

fn e7_example_run() {
    header("E7", "Section 8.4 — the Fig. 22 example run");
    let q = parse_query("/a[c[.//e and f] and b]").unwrap();
    let events = fx_xml::parse("<a><c><d/><e/><f/></c><b/><c/></a>").unwrap();
    let (steps, verdict) = fx_core::trace(&q, &events).unwrap();
    print!("{}", fx_core::render(&steps));
    println!("verdict: {verdict}");
    println!("shape check: ≤3 tuples throughout (= FS(Q)); <d> ignored; second <c> ignored.\n");
}

fn e8_space_sweeps() {
    header("E8", "Theorem 8.8 — the filter's space, factor by factor");

    println!("-- |Q| sweep (star queries /root[c0 and … and ck-1], flat documents) --");
    println!(
        "{:>5}  {:>6}  {:>6}  {:>10}",
        "k=|F|", "FS(Q)", "rows", "bits"
    );
    for k in [2usize, 4, 8, 16, 32] {
        let q = wl::star(k);
        let names: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let d = wl::wide("root", &name_refs, k * 2);
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&d.to_events());
        println!(
            "{k:>5}  {:>6}  {:>6}  {:>10}",
            frontier_size(&q),
            f.stats().max_rows,
            f.stats().max_bits
        );
    }

    println!("\n-- FS(Q) vs |Q|: balanced twigs (FS ≪ |Q|) --");
    println!(
        "{:>6}  {:>5}  {:>6}  {:>6}  {:>10}",
        "depth", "|Q|", "FS(Q)", "rows", "bits"
    );
    for depth in [1usize, 2, 3, 4, 5] {
        let q = wl::balanced_twig(depth);
        let cd = fx_analysis::canonical_document(&q).unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&cd.doc.to_events());
        println!(
            "{depth:>6}  {:>5}  {:>6}  {:>6}  {:>10}",
            q.len(),
            frontier_size(&q),
            f.stats().max_rows,
            f.stats().max_bits
        );
    }

    println!("\n-- r sweep (//a[b and c] on nested documents) --");
    let q = parse_query("//a[b and c]").unwrap();
    println!(
        "{:>6}  {:>6}  {:>12}  {:>14}",
        "r", "rows", "bits", "bound (8.8)"
    );
    for r in [1usize, 4, 16, 64, 256] {
        let d = wl::nested("a", r, "<b/><c/>");
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&d.to_events());
        println!(
            "{r:>6}  {:>6}  {:>12}  {:>14}",
            f.stats().max_rows,
            f.stats().max_bits,
            f.stats().theorem_bound_bits(r)
        );
    }

    println!("\n-- d sweep (/a/b on depth documents) --");
    let q = parse_query("/a/b").unwrap();
    println!("{:>6}  {:>6}  {:>12}", "d", "rows", "bits");
    for d in [4usize, 64, 1024, 16384] {
        let doc = wl::depth_document(d - 1);
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&doc.to_events());
        println!(
            "{d:>6}  {:>6}  {:>12}",
            f.stats().max_rows,
            f.stats().max_bits
        );
    }

    println!("\n-- w sweep (/r[f = \"nope\" and ok] on long-text documents) --");
    let q = parse_query("/r[f = \"nope\" and ok]").unwrap();
    println!("{:>8}  {:>12}  {:>14}", "w", "buffer bytes", "bits");
    for w in [16usize, 256, 4096, 65536] {
        let doc = wl::long_text("r", "f", w);
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&doc.to_events());
        println!(
            "{w:>8}  {:>12}  {:>14}",
            f.stats().max_buffer_bytes,
            f.stats().max_bits
        );
    }
    println!("shape check: rows track FS/|Q|·r; bits add log d; buffer tracks w linearly.\n");
}

fn e9_dfa_blowup() {
    header("E9", "automata blowup (§1.2): //a/*^k/b, alphabet {a,b}");
    println!(
        "{:>3}  {:>10}  {:>14}  {:>10}  {:>14}  {:>9}",
        "k", "DFA states", "DFA bits", "NFA bits", "frontier bits", "DFA/front"
    );
    for k in [2usize, 4, 6, 8, 10, 12] {
        let stars = "/*".repeat(k);
        let q = parse_query(&format!("//a{stars}/b")).unwrap();
        let mut dfa = LazyDfaFilter::new(&q).unwrap();
        let states = dfa.materialize(&["a", "b"]);
        let doc = wl::nested("a", k + 2, "<b/>");
        let events = doc.to_events();
        let mut nfa = NfaFilter::new(&q).unwrap();
        nfa.run_stream(&events);
        let mut frontier = StreamFilter::new(&q).unwrap();
        frontier.run_stream(&events);
        dfa.run_stream(&events);
        println!(
            "{k:>3}  {states:>10}  {:>14}  {:>10}  {:>14}  {:>9}",
            dfa.peak_memory_bits(),
            nfa.peak_memory_bits(),
            frontier.peak_memory_bits(),
            ratio(dfa.peak_memory_bits(), frontier.peak_memory_bits())
        );
    }
    println!("shape check: DFA grows ~2^k; NFA and frontier grow linearly; crossover at k=2.\n");
}

fn e10_throughput() {
    header("E10", "throughput (Õ(|D|·|Q|·r) time, Thm 8.8)");
    let mut rng = SmallRng::seed_from_u64(8010);
    let doc = wl::auction_site(
        &mut rng,
        &wl::XmarkConfig {
            items: 60,
            auctions: 40,
            people: 30,
            category_depth: 5,
        },
    );
    let events = doc.to_events();
    println!("document: XMark-lite, {} events", events.len());
    let budget = Duration::from_millis(300);

    println!("\n-- twig query //item[price > 300] --");
    let q = parse_query("//item[price > 300]").unwrap();
    let mut frontier = StreamFilter::new(&q).unwrap();
    let mut buf = BufferingFilter::new(&q);
    println!("{:<16} {:>14}  {:>12}", "engine", "events/sec", "peak bits");
    println!(
        "{:<16} {:>14.0}  {:>12}",
        "frontier",
        throughput(|e| frontier.process(e), &events, budget),
        frontier.peak_memory_bits()
    );
    println!(
        "{:<16} {:>14.0}  {:>12}",
        "buffer-all",
        throughput(|e| buf.process(e), &events, budget),
        buf.peak_memory_bits()
    );

    println!("\n-- linear query /site/regions/asia/item --");
    let q = parse_query("/site/regions/asia/item").unwrap();
    let mut frontier = StreamFilter::new(&q).unwrap();
    let mut nfa = NfaFilter::new(&q).unwrap();
    let mut dfa = LazyDfaFilter::new(&q).unwrap();
    println!("{:<16} {:>14}  {:>12}", "engine", "events/sec", "peak bits");
    println!(
        "{:<16} {:>14.0}  {:>12}",
        "frontier",
        throughput(|e| frontier.process(e), &events, budget),
        frontier.peak_memory_bits()
    );
    println!(
        "{:<16} {:>14.0}  {:>12}",
        "nfa",
        throughput(|e| nfa.process(e), &events, budget),
        nfa.peak_memory_bits()
    );
    println!(
        "{:<16} {:>14.0}  {:>12}",
        "lazy-dfa",
        throughput(|e| dfa.process(e), &events, budget),
        dfa.peak_memory_bits()
    );

    println!("\n-- recursive documents: time scales with r --");
    let q = parse_query("//a[b and c]").unwrap();
    println!("{:>6}  {:>14}", "r", "events/sec");
    for r in [1usize, 16, 128] {
        let d = wl::nested("a", r, "<b/><c/>");
        let ev = d.to_events();
        let mut f = StreamFilter::new(&q).unwrap();
        println!(
            "{r:>6}  {:>14.0}",
            throughput(|e| f.process(e), &ev, budget)
        );
    }
    println!();
}

fn e12_full_eval_overhead() {
    header(
        "E12",
        "full evaluation vs filtering — the [5] buffering cost, measured",
    );
    // Worst case for full evaluation: n output candidates whose ancestor
    // predicate resolves only at the very end of the document.
    let q = parse_query("/a[x]/b").unwrap();
    println!(
        "{:>8}  {:>12}  {:>12}  {:>14}  {:>10}",
        "cands", "filter bits", "report bits", "peak pendings", "selected"
    );
    for n in [10usize, 100, 1000, 10000] {
        let xml = format!("<a>{}<x/></a>", "<b/>".repeat(n));
        let events = fx_xml::parse(&xml).unwrap();
        let mut filt = StreamFilter::new(&q).unwrap();
        filt.process_all(&events);
        let mut rep = StreamFilter::new_reporting(&q).unwrap();
        let mut selected = 0usize;
        for e in &events {
            rep.process_to(e, Span::EMPTY, 0, &mut |_: Match| selected += 1);
        }
        let pend = rep.peak_pending_positions();
        let report_bits = rep.stats().max_bits + (pend as u64) * 64;
        println!(
            "{n:>8}  {:>12}  {report_bits:>12}  {pend:>14}  {selected:>10}",
            filt.stats().max_bits
        );
    }
    println!(
        "shape check: filtering stays O(1); full evaluation buffers Θ(#unresolved candidates)"
    );
    println!("— exactly the separation the paper's follow-up [5] proves necessary.\n");
}

fn e11_multi_query() {
    header("E11", "multi-query dissemination scalability");
    let mut rng = SmallRng::seed_from_u64(8011);
    let doc = wl::auction_site(&mut rng, &wl::XmarkConfig::default());
    let events = doc.to_events();
    println!(
        "{:>7}  {:>14}  {:>14}  {:>14}",
        "queries", "events/sec", "total bits", "bits/query"
    );
    for n in [1usize, 8, 64, 256, 1024] {
        let cfg = wl::RandomQueryConfig {
            max_nodes: 6,
            ..Default::default()
        };
        let queries: Vec<Query> = (0..n)
            .map(|_| wl::random_redundancy_free(&mut rng, &cfg))
            .collect();
        let mut bank = MultiFilter::new(&queries).unwrap();
        let symbols = Arc::clone(bank.symbols());
        let (mut attrs, mut names) = (AttrBuf::new(), SymCache::new());
        let start = Instant::now();
        let mut processed = 0u64;
        while start.elapsed() < Duration::from_millis(200) {
            for e in &events {
                let ev = attrs.sym_event(&mut names, &symbols, e);
                bank.process_sym_to(ev, Span::EMPTY, &mut |_: Match| {});
            }
            processed += events.len() as u64;
        }
        let eps = processed as f64 / start.elapsed().as_secs_f64();
        let bits = bank.total_max_bits();
        println!("{n:>7}  {eps:>14.0}  {bits:>14}  {:>14}", bits / n as u64);
    }
    println!("shape check: per-query state is flat; throughput degrades ~linearly in #queries.\n");
}

/// Best of five timed runs after one warm-up, as MB/s over `bytes`.
fn best_mb_s(bytes: usize, mut run: impl FnMut()) -> f64 {
    run();
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .expect("five timed runs");
    bytes as f64 / 1e6 / best.as_secs_f64()
}

/// Multi-core scale-out, aggregate MB/s over the full parse→filter
/// pipeline at 1/2/4/… threads up to the machine's parallelism.
/// `tests/sharded_differential.rs` proves the outputs are
/// thread-count-invariant; this prices them. Returns `false` only when
/// the machine is ≥ 4-wide and document sharding 1→4 is under 3× —
/// on a narrower box the ratio measures the scheduler, not the
/// architecture, so the gate skips.
fn scale() -> bool {
    header("scale", "multi-core scale-out, MB/s by thread count");
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("note: every scale/* number recorded so far came from a <= 2-wide box;");
    println!("this run sees parallelism={width}.");
    let widths: Vec<usize> = std::iter::successors(Some(1usize), |w| Some(w * 2))
        .take_while(|&w| w <= width)
        .collect();

    // Document sharding: a 64-document XMark corpus fanned across N
    // full cloned sessions — the embarrassingly-parallel axis.
    let cfg = wl::XmarkConfig {
        items: 20,
        auctions: 12,
        people: 10,
        category_depth: 4,
    };
    let corpus: Vec<String> = (0..64u64)
        .map(|i| wl::auction_site(&mut SmallRng::seed_from_u64(42 + i), &cfg).to_xml())
        .collect();
    let bytes = corpus.iter().map(String::len).sum();
    let engine = Engine::builder()
        .query_str("//item[price > 300]")
        .query_str("/site/people/person[name]")
        .query_str("//keyword")
        .build()
        .expect("three supported queries");
    println!("\n-- doc-sharded: 64 XMark documents, 3 queries, Engine::run_sharded --");
    println!("{:>7}  {:>10}", "threads", "MB/s");
    let doc_mb_s: Vec<f64> = widths
        .iter()
        .map(|&threads| {
            let mb_s = best_mb_s(bytes, || {
                black_box(
                    engine
                        .run_sharded(&corpus, threads)
                        .expect("well-formed corpus"),
                );
            });
            println!("{threads:>7}  {mb_s:>10.1}");
            mb_s
        })
        .collect();

    if width < 4 {
        println!("\nspeedup gate: skipped (parallelism={width})\n");
        return true;
    }
    let speedup = doc_mb_s[2] / doc_mb_s[0];
    let ok = speedup >= 3.0;
    println!(
        "\nspeedup gate: doc-sharded 1 -> 4 threads = {speedup:.2}x (need >= 3x): {}\n",
        if ok { "ok" } else { "FAILED" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(100, 10), "10x");
        assert_eq!(ratio(15, 10), "1.5x");
        assert_eq!(ratio(1, 0), "∞");
    }

    #[test]
    fn throughput_is_positive() {
        let q = parse_query("/a[b]").unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        let events = fx_xml::parse("<a><b/></a>").unwrap();
        let t = throughput(|e| f.process(e), &events, Duration::from_millis(10));
        assert!(t > 0.0);
    }
}
