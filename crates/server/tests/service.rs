//! End-to-end service tests: subscription lifecycle, document-boundary
//! churn, backpressure accounting, delivery order, and the symbol-memo
//! refresh that late subscriptions depend on — every case at one worker
//! and at several, since both are the same server.

use fx_server::{DisseminationServer, ServerConfig, ServerError, Subscription};
use fx_xpath::parse_query;
use std::time::Duration;

const WORKERS: [usize; 2] = [1, 3];

fn server(workers: usize) -> DisseminationServer {
    DisseminationServer::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
}

/// Empties a mailbox without blocking, keeping each delivery's `doc_seq`.
fn drain_seqs(sub: &Subscription) -> Vec<u64> {
    std::iter::from_fn(|| sub.try_recv())
        .map(|d| d.doc_seq)
        .collect()
}

#[test]
fn matches_stream_to_the_right_subscriber() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let names = h
            .subscribe(parse_query("//item[price]/name").unwrap())
            .unwrap();
        let prices = h.subscribe(parse_query("//item/price").unwrap()).unwrap();

        h.publish_str(
            "<cat><item><price>9</price><name>alpha</name></item>\
             <item><name>beta</name></item></cat>",
        )
        .unwrap();

        let d = names.recv().unwrap();
        assert_eq!(d.subscription, names.id());
        assert_eq!(d.doc_seq, 0);
        assert_eq!(d.fragment(), Some("<name>alpha</name>"));
        let p = prices.recv().unwrap();
        assert_eq!(p.fragment(), Some("<price>9</price>"));

        let stats = h.stats().unwrap();
        assert_eq!(stats.documents, 1);
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.live_subscriptions, 2);
        // Nothing further is pending for either subscriber.
        assert!(names.try_recv().is_none());
        assert!(prices.try_recv().is_none());
        srv.shutdown();
    }
}

#[test]
fn churn_lands_at_document_boundaries_without_rebuilds() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let first = h
            .subscribe(parse_query("/feed/story/title").unwrap())
            .unwrap();
        h.publish_str("<feed><story><title>one</title></story></feed>")
            .unwrap();
        let baseline = h.stats().unwrap();

        // Same canonical shape, different prefix: pooled residual, no build.
        let second = h
            .subscribe(parse_query("/wire/story/title").unwrap())
            .unwrap();
        // Unsubscribing and re-subscribing a known shape never compiles.
        assert!(h.unsubscribe(first.id()).unwrap());
        let third = h
            .subscribe(parse_query("/feed/story/title").unwrap())
            .unwrap();

        h.publish_str("<wire><story><title>two</title></story></wire>")
            .unwrap();
        h.publish_str("<feed><story><title>three</title></story></feed>")
            .unwrap();

        assert_eq!(
            second.recv().unwrap().fragment(),
            Some("<title>two</title>")
        );
        assert_eq!(
            third.recv().unwrap().fragment(),
            Some("<title>three</title>")
        );
        // The withdrawn subscription saw only the document published while
        // it was live.
        assert_eq!(first.recv().unwrap().fragment(), Some("<title>one</title>"));
        assert!(first.recv().is_none(), "no deliveries after unsubscribe");

        let stats = h.stats().unwrap();
        assert_eq!(
            stats.residual_builds, baseline.residual_builds,
            "churn over known query shapes must not compile anything"
        );
        assert_eq!(stats.subscribes, 3);
        assert_eq!(stats.unsubscribes, 1);
        srv.shutdown();
    }
}

#[test]
fn late_subscriptions_see_names_earlier_documents_memoized_as_unknown() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        // No subscription mentions "gadget" yet: the first document memoizes
        // it as an unknown name in the warm parser.
        let warm = h
            .subscribe(parse_query("/inventory/widget").unwrap())
            .unwrap();
        h.publish_str("<inventory><gadget>g</gadget><widget>w</widget></inventory>")
            .unwrap();
        assert!(warm.recv().is_some());

        // Now subscribe a query *on* that name; each worker's parser must
        // notice by itself, at its next document, that the name exists.
        let late = h
            .subscribe(parse_query("/inventory/gadget").unwrap())
            .unwrap();
        h.publish_str("<inventory><gadget>g</gadget><widget>w</widget></inventory>")
            .unwrap();
        assert_eq!(
            late.recv_timeout(Duration::from_secs(5))
                .as_ref()
                .and_then(|d| d.fragment()),
            Some("<gadget>g</gadget>"),
            "a late subscription must see names older documents memoized as unknown"
        );
        srv.shutdown();
    }
}

#[test]
fn stalled_subscribers_lag_without_blocking_the_stream() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        // Mailbox of 1: the second match of a document cannot fit until the
        // consumer drains — and this consumer never does.
        let slow = h
            .subscribe_with_mailbox(parse_query("//row").unwrap(), 1)
            .unwrap();
        let fast = h.subscribe(parse_query("//row").unwrap()).unwrap();
        h.publish_str("<t><row>1</row><row>2</row><row>3</row></t>")
            .unwrap();

        let stats = h.stats().unwrap();
        assert_eq!(stats.documents, 1);
        assert_eq!(stats.dropped_deliveries, 2, "slow subscriber lags by two");
        assert_eq!(stats.deliveries, 4, "one kept for slow, three for fast");
        assert_eq!(slow.dropped(), 2);
        assert_eq!(slow.delivered(), 1);
        assert_eq!(fast.dropped(), 0);
        for _ in 0..3 {
            assert!(fast.recv().is_some());
        }
        srv.shutdown();
    }
}

#[test]
fn dropped_receivers_are_auto_unsubscribed() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let keep = h.subscribe(parse_query("//a").unwrap()).unwrap();
        let gone = h.subscribe(parse_query("//a").unwrap()).unwrap();
        drop(gone);
        // First document: the dead mailbox is detected on delivery, and the
        // barrier that uncovered it also withdraws the subscription.
        h.publish_str("<a/>").unwrap();
        let stats = h.stats().unwrap();
        assert_eq!(stats.auto_unsubscribes, 1);
        assert_eq!(stats.live_subscriptions, 1);
        assert!(keep.recv().is_some());
        srv.shutdown();
    }
}

#[test]
fn malformed_documents_are_counted_and_skipped() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let sub = h.subscribe(parse_query("//a").unwrap()).unwrap();
        h.publish_str("<a><unclosed>").unwrap();
        h.publish_str("<a/>").unwrap();
        let stats = h.stats().unwrap();
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(stats.documents, 1);
        assert!(
            sub.recv().is_some(),
            "the stream continues past bad documents"
        );
        srv.shutdown();
    }
}

#[test]
fn unsupported_queries_are_rejected_without_registering() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let err = h.subscribe(parse_query("/a[b or c]").unwrap()).unwrap_err();
        assert!(matches!(err, ServerError::Unsupported(_)), "{err}");
        assert_eq!(h.stats().unwrap().live_subscriptions, 0);
        srv.shutdown();
    }
}

#[test]
fn explicit_compaction_keeps_routing_straight() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let subs: Vec<_> = (0..8)
            .map(|i| {
                h.subscribe(parse_query(&format!("/root/k{i}")).unwrap())
                    .unwrap()
            })
            .collect();
        for sub in &subs[..6] {
            assert!(h.unsubscribe(sub.id()).unwrap());
        }
        assert!(h.compact().unwrap());
        // Slots renumbered; deliveries must still reach the survivors.
        h.publish_str("<root><k6>x</k6><k7>y</k7></root>").unwrap();
        assert_eq!(subs[6].recv().unwrap().fragment(), Some("<k6>x</k6>"));
        assert_eq!(subs[7].recv().unwrap().fragment(), Some("<k7>y</k7>"));
        let stats = h.stats().unwrap();
        assert!(stats.compactions >= 1);
        assert_eq!(stats.live_subscriptions, 2);
        srv.shutdown();
    }
}

#[test]
fn shutdown_drains_queued_documents_and_reports() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let sub = h.subscribe(parse_query("//x").unwrap()).unwrap();
        for _ in 0..16 {
            h.publish_str("<d><x/></d>").unwrap();
        }
        let stats = srv.shutdown();
        assert_eq!(stats.documents, 16, "shutdown drains, it does not discard");
        assert_eq!(stats.deliveries, 16);
        let mut received = 0;
        while sub.try_recv().is_some() {
            received += 1;
        }
        assert_eq!(received, 16);
        assert!(matches!(h.publish_str("<d/>"), Err(ServerError::Closed)));
        assert!(matches!(
            h.subscribe(parse_query("//x").unwrap()),
            Err(ServerError::Closed)
        ));
    }
}

#[test]
fn handles_feed_one_worker_from_many_threads() {
    for workers in WORKERS {
        let srv = DisseminationServer::start(ServerConfig {
            doc_queue_capacity: 4, // small: exercises publish backpressure
            workers,
            ..ServerConfig::default()
        });
        let h = srv.handle();
        let sub = h.subscribe(parse_query("//story/title").unwrap()).unwrap();
        let publishers: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        h.publish_str(&format!(
                            "<feed><story><title>t{t}-{i}</title></story></feed>"
                        ))
                        .unwrap();
                    }
                })
            })
            .collect();
        let mut got = 0;
        while got < 100 {
            assert!(
                sub.recv_timeout(Duration::from_secs(30)).is_some(),
                "only {got} of 100 deliveries arrived"
            );
            got += 1;
        }
        for p in publishers {
            p.join().unwrap();
        }
        let stats = srv.shutdown();
        assert_eq!(stats.documents, 100);
        assert_eq!(stats.deliveries, 100);
        assert_eq!(stats.dropped_deliveries, 0);
    }
}

#[test]
fn fans_documents_across_workers_and_merges_in_order() {
    for workers in [1, 4] {
        let srv = server(workers);
        assert_eq!(srv.workers(), workers);
        let h = srv.handle();
        let sub = h.subscribe(parse_query("//item/name").unwrap()).unwrap();
        for i in 0..40 {
            h.publish_str(&format!("<cat><item><name>n{i}</name></item></cat>"))
                .unwrap();
        }
        let stats = h.stats().unwrap();
        assert_eq!(stats.documents, 40);
        assert_eq!(stats.deliveries, 40);
        assert_eq!(
            drain_seqs(&sub),
            (0..40).collect::<Vec<u64>>(),
            "deliveries arrive in global publish order"
        );
        let final_stats = srv.shutdown();
        assert_eq!(final_stats.documents, 40);
        assert_eq!(final_stats.live_subscriptions, 1);
    }
}

#[test]
fn churn_applies_to_every_worker() {
    for workers in WORKERS {
        let srv = server(workers);
        let h = srv.handle();
        let a = h.subscribe(parse_query("//a").unwrap()).unwrap();
        let b = h.subscribe(parse_query("//b").unwrap()).unwrap();
        assert_ne!(a.id(), b.id());
        // Enough documents that every worker sees some.
        for _ in 0..9 {
            h.publish_str("<r><a/><b/></r>").unwrap();
        }
        // Barrier: commands overtake queued documents (they apply at the
        // next boundary), so drain before withdrawing `a`.
        h.stats().unwrap();
        assert!(h.unsubscribe(a.id()).unwrap());
        assert!(!h.unsubscribe(a.id()).unwrap(), "already gone");
        for _ in 0..9 {
            h.publish_str("<r><a/><b/></r>").unwrap();
        }
        let stats = h.stats().unwrap();
        assert_eq!(stats.documents, 18);
        assert_eq!(stats.live_subscriptions, 1);
        // `a` saw the first nine documents everywhere, `b` all 18.
        assert_eq!(a.delivered(), 9);
        assert_eq!(b.delivered(), 18);
        srv.shutdown();
    }
}

#[test]
fn subscribe_after_shutdown_fails() {
    for workers in [1, 2] {
        let srv = server(workers);
        let h = srv.handle();
        srv.shutdown();
        assert!(matches!(
            h.subscribe(parse_query("//x").unwrap()),
            Err(ServerError::Closed)
        ));
        assert!(matches!(h.publish_str("<x/>"), Err(ServerError::Closed)));
    }
}

/// Every fourth document is ~210 KB and the three after it are eleven
/// bytes, on four workers with two-document queues: the small ones
/// finish long before the big one ahead of them, so their reports have
/// to wait their turn. Subscribers must still read a gap-free ascending
/// `doc_seq` — the second time with `shutdown` arriving while reports
/// are parked, where a barrier arrived the first time.
#[test]
fn reports_ahead_of_their_turn_wait_for_it() {
    const DOCS: u64 = 40;
    let big = format!("<d><x/>{}</d>", "<pad>0123456789</pad>".repeat(10_000));
    for barrier_first in [true, false] {
        let srv = DisseminationServer::start(ServerConfig {
            doc_queue_capacity: 2,
            workers: 4,
            ..ServerConfig::default()
        });
        let h = srv.handle();
        let subs = [
            h.subscribe(parse_query("//x").unwrap()).unwrap(),
            h.subscribe(parse_query("/d/x").unwrap()).unwrap(),
        ];
        for seq in 0..DOCS {
            h.publish_str(if seq % 4 == 0 { &big } else { "<d><x/></d>" })
                .unwrap();
        }
        if barrier_first {
            assert_eq!(h.stats().unwrap().deliveries, 2 * DOCS);
        }
        let stats = srv.shutdown();
        assert_eq!(stats.documents, DOCS);
        assert_eq!(stats.deliveries, 2 * DOCS);
        for sub in &subs {
            assert_eq!(drain_seqs(sub), (0..DOCS).collect::<Vec<u64>>());
        }
    }
}
