//! Concurrency stress: the multi-core layer under adversarial
//! scheduling. Three fronts:
//!
//! 1. **The shared view vs a live interner** — reader threads hammer a
//!    `SymbolsSnapshot` while the writer keeps interning; the grow-only
//!    table guarantees every answer of the view stays correct forever
//!    (prefix stability), staleness shows as a length behind the
//!    table's, and the next `snapshot()` picks up the new names.
//! 2. **Multi-worker server churn under publish load** — subscriptions
//!    come and go while publishers flood all workers; pinned subscriptions
//!    must see *exactly* their documents (no loss, no duplication,
//!    ordered by `doc_seq`), and every drop must be accounted twice
//!    over: per-subscription counters sum to the server's
//!    `dropped_deliveries`. A consumer racing the workers never lags by
//!    more than its mailbox capacity, and a drained mailbox fills again.
//! 3. **Cross-worker stale-memo regression** — a late subscription's
//!    names were interned *after* other workers' documents memoized
//!    them UNKNOWN in their parsers; every worker must still match
//!    post-subscribe documents (each parser's own check at its next
//!    document — nobody tells it).
//!
//! Runs in CI's checked-arithmetic job with `RUST_TEST_THREADS`
//! unpinned, so test-level parallelism adds scheduling noise for free.

use frontier_xpath::server::{DisseminationServer, ServerConfig};
use frontier_xpath::xml::{Sym, Symbols};
use frontier_xpath::xpath::parse_query;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Readers resolve through the table's shared view while the writer
/// interns thousands of fresh names: every answer the view gave must
/// hold verbatim, later names must be invisible to it, and its length
/// must fall behind the table's exactly when the table outgrows it.
#[test]
fn snapshot_readers_survive_concurrent_interning() {
    let symbols = Arc::new(Symbols::new());
    let baseline: Vec<(String, Sym)> = (0..200)
        .map(|i| {
            let name = format!("elem-{i}");
            let sym = symbols.intern(&name);
            (name, sym)
        })
        .collect();
    let snapshot = symbols.snapshot();
    assert_eq!(snapshot.len(), symbols.len());

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let snapshot = Arc::clone(&snapshot);
            let baseline = baseline.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Do-while: a reader first scheduled after the writer
                // has already finished still completes one round.
                let mut rounds = 0u64;
                loop {
                    for (name, sym) in &baseline {
                        assert_eq!(snapshot.lookup(name), Some(*sym), "reader {r}");
                        assert_eq!(snapshot.resolve(*sym), Some(name.as_str()));
                    }
                    // Names interned after the view was taken never leak in.
                    assert_eq!(snapshot.lookup(&format!("late-{rounds}")), None);
                    rounds += 1;
                    if stop.load(Ordering::Relaxed) {
                        break rounds;
                    }
                }
            })
        })
        .collect();

    // The writer: thousands of novel interns racing the readers.
    for i in 0..4000 {
        symbols.intern(&format!("late-{i}"));
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader never completed a round");
    }

    // Staleness is detectable, and the next view sees everything.
    assert_eq!(snapshot.len(), baseline.len());
    assert_ne!(snapshot.len(), symbols.len());
    let renewed = symbols.snapshot();
    assert_eq!(renewed.len(), symbols.len());
    assert!(renewed.lookup("late-3999").is_some());
    for (name, sym) in &baseline {
        assert_eq!(renewed.lookup(name), Some(*sym), "prefix stability");
    }
}

/// Churn (subscribe/unsubscribe bursts) races a publish flood on a
/// 4-worker server. Two pinned subscriptions must see exactly
/// the published documents — delivered + dropped per subscription sums
/// to the total published, nothing lost, nothing duplicated — and the
/// server-wide drop counter must equal the sum over every subscriber
/// that ever existed.
#[test]
fn sharded_churn_under_publish_load_accounts_every_delivery() {
    let server = DisseminationServer::start(ServerConfig {
        doc_queue_capacity: 8,
        mailbox_capacity: 4096,
        workers: 4,
        ..ServerConfig::default()
    });
    let handle = server.handle();
    // Pinned: big-enough mailboxes that nothing is ever dropped.
    let pin_a = handle.subscribe(parse_query("//ping").unwrap()).unwrap();
    let pin_b = handle
        .subscribe(parse_query("/doc[ping]").unwrap())
        .unwrap();
    // Starved: a 1-slot mailbox never read until the end, so the drop
    // path is exercised under full load.
    let starved = handle
        .subscribe_with_mailbox(parse_query("//ping").unwrap(), 1)
        .unwrap();

    const DOCS: u64 = 300;
    let publishers: Vec<_> = (0..3)
        .map(|_| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                for _ in 0..DOCS / 3 {
                    handle.publish_str("<doc><ping/></doc>").unwrap();
                }
            })
        })
        .collect();
    // Churn racing the flood: transient subscriptions come and go.
    let churner = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            for _ in 0..40 {
                let sub = handle.subscribe(parse_query("//ping").unwrap()).unwrap();
                std::thread::yield_now();
                handle.unsubscribe(sub.id()).unwrap();
            }
        })
    };
    for p in publishers {
        p.join().unwrap();
    }
    churner.join().unwrap();

    let stats = handle.stats().unwrap();
    assert_eq!(stats.documents, DOCS);
    assert_eq!(stats.parse_errors, 0);

    // Pinned subscriptions: exact delivery, in doc_seq order, no gaps
    // within what each received (both were live for every document).
    for (name, pin) in [("a", &pin_a), ("b", &pin_b)] {
        assert_eq!(pin.dropped(), 0, "pinned {name} lagged");
        assert_eq!(pin.delivered(), DOCS, "pinned {name} lost deliveries");
        let mut seqs = Vec::new();
        while let Some(d) = pin.try_recv() {
            seqs.push(d.doc_seq);
        }
        assert_eq!(seqs.len() as u64, DOCS, "pinned {name} mailbox count");
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, DOCS, "pinned {name} duplicated a doc");
        assert_eq!(
            seqs, sorted,
            "pinned {name} deliveries out of doc_seq order"
        );
    }

    // The starved mailbox accounted every document exactly once,
    // split between delivered and dropped.
    assert_eq!(
        starved.delivered() + starved.dropped(),
        DOCS,
        "starved subscription lost accounting"
    );
    assert!(
        starved.dropped() > 0,
        "1-slot mailbox under flood must drop"
    );

    // Global conservation: worker deliveries + drops == what the three
    // mailboxes (plus fully-drained transients) were offered.
    assert_eq!(
        stats.dropped_deliveries,
        starved.dropped(),
        "server-wide drop counter must equal the sum of per-sub lag counters"
    );
    let final_stats = server.shutdown();
    assert_eq!(final_stats.documents, DOCS);
    assert_eq!(final_stats.dropped_deliveries, starved.dropped());
    assert_eq!(final_stats.live_subscriptions, 3);
    assert_eq!(final_stats.subscribes, 3 + 40);
    assert_eq!(final_stats.unsubscribes, 40);
}

/// A consumer thread drains a 4-slot mailbox while three workers race
/// to fill it. The mailbox bound is a bound on lag: at every receive the
/// deliveries not yet received number at most the capacity. Every match
/// is accounted once, delivered or dropped, and once the consumer has
/// caught up the mailbox accepts a full capacity again.
#[test]
fn a_racing_consumer_lags_by_at_most_its_mailbox() {
    const CAPACITY: u64 = 4;
    const DOCS: u64 = 200;
    const PINGS: u64 = 6; // per document: more than the mailbox holds
    let server = DisseminationServer::start(ServerConfig {
        doc_queue_capacity: 8,
        workers: 3,
        ..ServerConfig::default()
    });
    let handle = server.handle();
    let sub = handle
        .subscribe_with_mailbox(parse_query("//ping").unwrap(), CAPACITY as usize)
        .unwrap();
    let id = sub.id();
    let received = Arc::new(AtomicU64::new(0));
    let consumer = {
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            while sub.recv().is_some() {
                let got = received.fetch_add(1, Ordering::Relaxed) + 1;
                let lag = sub.delivered().saturating_sub(got);
                assert!(lag <= CAPACITY, "lag {lag} past a {CAPACITY}-slot mailbox");
                if got.is_multiple_of(64) {
                    std::thread::yield_now();
                }
            }
            sub
        })
    };
    let doc = format!("<doc>{}</doc>", "<ping/>".repeat(PINGS as usize));
    for _ in 0..DOCS {
        handle.publish_str(&doc).unwrap();
    }
    // Wait for the consumer to catch up with everything delivered.
    let caught_up = |deliveries: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while received.load(Ordering::Relaxed) < deliveries {
            assert!(!consumer.is_finished(), "the consumer exited early");
            assert!(Instant::now() < deadline, "the consumer stalled");
            std::thread::yield_now();
        }
    };
    let flood = handle.stats().unwrap();
    assert_eq!(flood.deliveries + flood.dropped_deliveries, DOCS * PINGS);
    caught_up(flood.deliveries);

    // A drained mailbox takes a whole capacity again without a drop.
    let refill = format!("<doc>{}</doc>", "<ping/>".repeat(CAPACITY as usize));
    handle.publish_str(&refill).unwrap();
    let stats = handle.stats().unwrap();
    assert_eq!(stats.deliveries, flood.deliveries + CAPACITY);
    assert_eq!(stats.dropped_deliveries, flood.dropped_deliveries);
    caught_up(stats.deliveries);

    assert!(handle.unsubscribe(id).unwrap());
    let sub = consumer.join().unwrap();
    assert_eq!(received.load(Ordering::Relaxed), sub.delivered());
    assert_eq!(sub.delivered() + sub.dropped(), DOCS * PINGS + CAPACITY);
    assert_eq!(sub.dropped(), stats.dropped_deliveries);
    server.shutdown();
}

/// The cross-worker stale-memo regression (the satellite fix pinned as
/// behavior): documents containing `<X>` flow through *every* worker
/// before any query mentions `X`, so each worker's parser memoizes `X`
/// as unknown. A late `//X` subscription must still match on all
/// workers — each takes the table's new view at its next document.
#[test]
fn late_subscription_names_unstick_every_workers_memo() {
    for workers in [2usize, 4] {
        let server = DisseminationServer::start(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let handle = server.handle();
        // Warm every worker's name memo with X-bearing documents that
        // nobody subscribes to (round-robin covers all workers).
        let warmup = 4 * workers as u64;
        for _ in 0..warmup {
            handle.publish_str("<r><X/></r>").unwrap();
        }
        // Barrier so the warm-up is fully processed (memoized) first.
        let stats = handle.stats().unwrap();
        assert_eq!(stats.documents, warmup);

        let sub = handle.subscribe(parse_query("//X").unwrap()).unwrap();
        let post = 4 * workers as u64;
        for _ in 0..post {
            handle.publish_str("<r><X/></r>").unwrap();
        }
        let stats = handle.stats().unwrap();
        assert_eq!(
            stats.deliveries, post,
            "{workers} workers: a late subscription's name stayed \
             memoized-unknown on some worker"
        );
        assert_eq!(sub.delivered(), post);
        server.shutdown();
    }
}
