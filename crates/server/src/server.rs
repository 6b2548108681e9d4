//! The shell around [`crate::broker`]: worker threads that parse, run
//! their [`IndexedBank`], resolve slots to ids and report under the
//! outbox lock, and handles that call the core under the churn lock.
//! Lock order: churn, then an inbox's or the outbox's (leaves). Nothing
//! blocks under the outbox lock and workers never take the churn lock,
//! so `compact` and `stats` may wait for workers while holding it. A
//! poisoned lock closes the server: the caller that meets it gets
//! [`ServerError::Closed`], and so does every later call.

use crate::broker::{route, Churn, Command, Mailbox, Offer, Outbox, Port, Resolved};
use crate::inbox::Inbox;
use crate::sub::{Delivery, Document, SubShared, Subscription};
use crate::{ServerConfig, ServerError, ServerStats};
use fx_core::{CompiledQuery, IndexedBank, Match, SubscriptionId};
use fx_xml::{StreamingParser, Symbols};
use fx_xpath::Query;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A published document and its place in the stream.
pub(crate) type Doc = (u64, Document);

/// The server-side end of one subscription: the delivery sender (owned
/// *only* here, so dropping it on withdrawal disconnects the mailbox),
/// the mailbox capacity, and the counters shared with the subscriber.
pub(crate) struct Outlet {
    tx: Sender<Delivery>,
    capacity: usize,
    shared: Arc<SubShared>,
}

impl Mailbox for Outlet {
    fn offer(&mut self, delivery: Delivery) -> Offer {
        let shared = &self.shared;
        // Reserve a slot before sending: the subscriber releases one only
        // after receiving, so the count never underflows.
        if shared.backlog.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            shared.backlog.fetch_sub(1, Ordering::Relaxed);
            // Once the `Subscription` is dropped the outlet holds the
            // only reference: a full mailbox nobody reads has departed.
            if Arc::strong_count(shared) == 1 {
                return Offer::Gone;
            }
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            return Offer::Full;
        }
        if self.tx.send(delivery).is_err() {
            return Offer::Gone;
        }
        shared.delivered.fetch_add(1, Ordering::Relaxed);
        Offer::Sent
    }
}

pub(crate) struct Shared {
    inboxes: Vec<Inbox>,
    seq: AtomicU64,
    churn: Mutex<Churn>,
    outbox: Mutex<Outbox<Outlet>>,
    mailbox_capacity: usize,
}

impl Shared {
    fn close(&self) {
        self.inboxes.iter().for_each(Inbox::close);
    }

    /// A poisoned lock means a thread died mid-update: fail closed.
    fn lock<'a, T>(&self, mutex: &'a Mutex<T>) -> Result<MutexGuard<'a, T>, ServerError> {
        mutex.lock().map_err(|_| {
            self.close();
            ServerError::Closed
        })
    }
}

impl Port for Shared {
    type Mailbox = Outlet;
    type Query = Arc<Query>;
    type Reply<A> = SyncSender<A>;
    type Pending<A> = Receiver<A>;

    fn workers(&self) -> usize {
        self.inboxes.len()
    }

    fn outbox<T>(&self, f: impl FnOnce(&mut Outbox<Outlet>) -> T) -> Result<T, ServerError> {
        Ok(f(&mut *self.lock(&self.outbox)?))
    }

    fn push(&self, worker: usize, command: Command<Shared>) -> Result<(), ServerError> {
        self.inboxes[worker].command(command)
    }

    fn reply<A>(&self) -> (SyncSender<A>, Receiver<A>) {
        sync_channel(1)
    }

    /// A reply that cannot be sent reads as [`ServerError::Closed`].
    fn wait<A>(&self, pending: Receiver<A>) -> Result<A, ServerError> {
        pending.recv().map_err(|_| ServerError::Closed)
    }
}

/// One worker: a bank and a warm lookup-only parser over the shared
/// symbol table (a late subscription's names reach it at its next
/// document). Each event goes from parser to bank as it completes,
/// borrowed from the document's bytes; no run of events is kept.
struct Worker {
    index: usize,
    shared: Arc<Shared>,
    bank: IndexedBank,
    parser: StreamingParser,
    /// Per-document buffers, kept across documents.
    raw: Vec<Match>,
    resolved: Vec<Resolved>,
    /// Documents and parse errors; [`Worker::stats`] adds the bank's.
    counts: ServerStats,
}

impl Worker {
    fn inbox(&self) -> &Inbox {
        &self.shared.inboxes[self.index]
    }

    fn run(mut self) -> ServerStats {
        while let Some((cmds, doc)) = self.inbox().take_work() {
            for cmd in cmds {
                self.apply(cmd);
            }
            if let Some(doc) = doc {
                self.process(doc);
            }
        }
        self.stats()
    }

    fn apply(&mut self, cmd: Command<Shared>) {
        match cmd {
            Command::Subscribe(query, id) => {
                let assigned = self.bank.subscribe(&query);
                assert_eq!(assigned, Ok(id), "the bank decides as the handle did");
            }
            Command::Unsubscribe(id) => {
                let gone = self.bank.unsubscribe(id);
                assert!(gone, "the handle withdraws only live ids");
            }
            Command::Compact(reply) => {
                let did = self.bank.compact();
                let _ = reply.map(|reply| reply.send(did));
            }
            Command::Stats(reply) => {
                // The barrier: commands queued before it have been applied;
                // documents queued before it are drained here.
                while let Some(doc) = self.inbox().take_doc() {
                    self.process(doc);
                }
                let _ = reply.send(self.stats());
            }
        }
    }

    fn process(&mut self, (seq, document): Doc) {
        let Worker {
            bank, parser, raw, ..
        } = self;
        raw.clear();
        parser.reset();
        let result = parser.drive(&document[..], &mut |ev, span| {
            bank.process_sym_to(ev, span, raw)
        });
        if result.is_ok() {
            self.counts.documents += 1;
        } else {
            // A rejected document delivers nothing; its empty report
            // still keeps its place in publish order.
            raw.clear();
            self.counts.parse_errors += 1;
        }
        // Slot → id before the report leaves this thread: slots are
        // worker-local and renumber on compaction, ids never do.
        let bank = &self.bank;
        self.resolved.clear();
        self.resolved.extend(self.raw.iter().filter_map(|m| {
            bank.subscription_of(m.query)
                .map(|id| (id, m.ordinal, m.span))
        }));
        let resolved = &self.resolved;
        let _ = self.shared.outbox(|o| o.report(seq, document, resolved));
    }

    /// This worker's slice of the [`ServerStats`]; the core merges.
    fn stats(&self) -> ServerStats {
        ServerStats {
            live_subscriptions: self.bank.live_subscriptions(),
            compactions: self.bank.compactions(),
            residual_builds: self.bank.residual_builds(),
            ..self.counts.clone()
        }
    }
}

/// A running dissemination service: [`ServerConfig::workers`] worker
/// threads, each owning a bank and a parser, fed through
/// [`ServerHandle`]s. See the crate docs for the full model.
pub struct DisseminationServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<ServerStats>>,
}

impl DisseminationServer {
    /// Spawns the workers with empty query banks over one shared symbol
    /// table. Subscribers and documents may arrive from any thread, in
    /// any order.
    pub fn start(config: ServerConfig) -> DisseminationServer {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            // Each worker gets the full configured document budget: the
            // round-robin split bounds what is queued by workers ×
            // capacity.
            inboxes: (0..workers)
                .map(|_| Inbox::new(config.doc_queue_capacity))
                .collect(),
            seq: AtomicU64::new(0),
            churn: Mutex::default(),
            outbox: Mutex::default(),
            mailbox_capacity: config.mailbox_capacity.max(1),
        });
        let symbols = Arc::new(Symbols::new());
        let workers = (0..workers)
            .map(|index| {
                let worker = Worker {
                    index,
                    shared: Arc::clone(&shared),
                    bank: IndexedBank::new_reporting_with_symbols(&[], Arc::clone(&symbols))
                        .expect("an empty bank always builds"),
                    parser: StreamingParser::with_symbols(Arc::clone(&symbols)).lookup_only(),
                    raw: Vec::new(),
                    resolved: Vec::new(),
                    counts: ServerStats::default(),
                };
                std::thread::Builder::new()
                    .name(format!("fx-server-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawning an fx-server worker thread")
            })
            .collect();
        DisseminationServer { shared, workers }
    }

    /// A cloneable ingress handle (subscribe / publish / stats).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stops accepting work, drains everything already queued (commands
    /// *and* documents), joins the workers, releases what the reorder
    /// buffer still holds and returns the final stats.
    pub fn shutdown(self) -> ServerStats {
        // Closing the books must not fail, so both locks are recovered
        // if poisoned: every update under them is a counter or map step
        // that leaves the data valid. The churn lock comes first, so no
        // churn operation is half-broadcast when the inboxes close.
        let shared = &*self.shared;
        let mut churn = shared.churn.lock().unwrap_or_else(PoisonError::into_inner);
        shared.close();
        let join = |w: JoinHandle<_>| w.join().expect("fx-server worker thread panicked");
        let workers: Vec<_> = self.workers.into_iter().map(join).collect();
        let mut outbox = shared.outbox.lock().unwrap_or_else(PoisonError::into_inner);
        churn.close(&mut outbox, &workers)
    }
}

impl std::fmt::Debug for DisseminationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisseminationServer")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// A thread-safe ingress handle to a [`DisseminationServer`]. Cheap to
/// clone; every clone feeds the same workers.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    fn churn(&self) -> Result<MutexGuard<'_, Churn>, ServerError> {
        self.shared.lock(&self.shared.churn)
    }

    /// Registers a standing query on every worker and returns its
    /// [`Subscription`] mailbox. Acceptance is decided here, before the
    /// call returns — an unsupported query is rejected with
    /// [`ServerError::Unsupported`] and registers nothing — and the call
    /// waits for no worker. Applied at each worker's next document
    /// boundary: the subscription sees every document published after
    /// this call returns (and may additionally see earlier documents
    /// still queued when it lands). Incremental — O(|query|) bank
    /// growth, no recompilation of existing queries.
    pub fn subscribe(&self, query: Query) -> Result<Subscription, ServerError> {
        self.subscribe_with_mailbox(query, self.shared.mailbox_capacity)
    }

    /// [`ServerHandle::subscribe`] with a per-subscription mailbox
    /// capacity overriding [`crate::ServerConfig::mailbox_capacity`].
    pub fn subscribe_with_mailbox(
        &self,
        query: Query,
        mailbox: usize,
    ) -> Result<Subscription, ServerError> {
        // Every bank is a reporting bank and runs this same check.
        CompiledQuery::check(&query, true).map_err(ServerError::Unsupported)?;
        let (tx, rx) = channel();
        let shared = Arc::new(SubShared::default());
        let capacity = mailbox.max(1);
        let outlet = Outlet {
            tx,
            capacity,
            shared: Arc::clone(&shared),
        };
        let query = Arc::new(query);
        let id = self.churn()?.subscribe(&*self.shared, query, outlet)?;
        Ok(Subscription { id, rx, shared })
    }

    /// Withdraws a subscription: nothing more is delivered to its
    /// mailbox once this returns, and every worker drops the query at its
    /// next document boundary. `false` if the id was never live or is
    /// already gone. Waits for no worker.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<bool, ServerError> {
        self.churn()?.unsubscribe(&*self.shared, id)
    }

    /// Queues one XML document for evaluation against every live
    /// subscription: it takes the next sequence number and goes to one
    /// worker, round-robin. Blocks while that worker's document queue is
    /// at capacity (upstream backpressure); returns `Err` only when the
    /// server is shut down.
    pub fn publish(&self, doc: impl Into<Arc<[u8]>>) -> Result<(), ServerError> {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let worker = route(seq, self.shared.inboxes.len());
        self.shared.inboxes[worker].publish((seq, doc.into()))
    }

    /// [`ServerHandle::publish`] for string documents.
    pub fn publish_str(&self, doc: &str) -> Result<(), ServerError> {
        self.publish(doc.as_bytes().to_vec())
    }

    /// Forces a bank compaction (normally automatic) on every worker at
    /// its next document boundary. `true` if tombstones were folded away.
    pub fn compact(&self) -> Result<bool, ServerError> {
        self.churn()?.compact(&*self.shared)
    }

    /// A cumulative activity snapshot. Synchronous: acts as a barrier
    /// for everything queued before it (commands and documents alike) —
    /// every worker drains its own queue first. Subscribers found
    /// departed by then are withdrawn and counted in the same snapshot.
    /// (Deliveries are released in publish order, so a `publish` still
    /// in flight on another thread holds back those of later documents
    /// until it lands.)
    pub fn stats(&self) -> Result<ServerStats, ServerError> {
        self.churn()?.stats(&*self.shared)
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").finish_non_exhaustive()
    }
}

// Workers, subscriptions and handles cross threads: a regression in
// these bounds should fail the build here, not at a distant spawn site.
const _: () = {
    const fn send<T: Send>() {}
    const fn send_sync<T: Send + Sync>() {}
    send::<(Worker, Subscription)>();
    send_sync::<ServerHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xml::Span;
    use fx_xpath::parse_query;

    /// An outbox with one subscriber `id`, and the mailbox to read back.
    fn outbox_with(id: SubscriptionId) -> (Outbox<Outlet>, Subscription) {
        let (tx, rx) = channel();
        let shared = Arc::new(SubShared::default());
        let outlet = Outlet {
            tx,
            capacity: 16,
            shared: Arc::clone(&shared),
        };
        let mut outbox = Outbox::default();
        outbox.register(id, outlet);
        (outbox, Subscription { id, rx, shared })
    }

    #[test]
    fn reports_are_released_in_sequence_whatever_order_they_arrive_in() {
        let id = SubscriptionId::from_raw(7);
        let (mut outbox, sub) = outbox_with(id);
        let doc: Arc<[u8]> = Arc::from(&b"<a/>"[..]);
        let hit = [(id, 0, Span::default())];
        for seq in [2, 1, 4] {
            outbox.report(seq, Arc::clone(&doc), &hit);
            assert!(sub.try_recv().is_none(), "{seq} is ahead of its turn");
        }
        outbox.report(0, Arc::clone(&doc), &hit);
        let seqs = |sub: &Subscription| -> Vec<u64> {
            std::iter::from_fn(|| sub.try_recv())
                .map(|d| d.doc_seq)
                .collect()
        };
        assert_eq!(seqs(&sub), [0, 1, 2], "0 releases the run parked behind it");
        // 3 never arrives (its publish lost the race with the close):
        // closing the books still releases 4.
        let stats = Churn::default().close(&mut outbox, &[ServerStats::default()]);
        assert_eq!(seqs(&sub), [4]);
        assert_eq!((stats.deliveries, sub.delivered()), (4, 4));
    }

    /// Some thread dies holding the outbox lock. The first call that
    /// meets the poison closes the server (any churn call: each sweeps
    /// the outbox first), so `publish`, which takes neither lock, is
    /// refused as well — and nothing panics, `shutdown` included.
    #[test]
    fn a_poisoned_lock_is_closed_in_the_caller() {
        let server = DisseminationServer::start(ServerConfig::default());
        let handle = server.handle();
        let sub = handle.subscribe(parse_query("//a").unwrap()).unwrap();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = server.shared.outbox.lock().unwrap();
                panic!("poisoning the outbox lock");
            });
            assert!(holder.join().is_err());
        });
        let query = || parse_query("//b").unwrap();
        assert!(matches!(handle.stats(), Err(ServerError::Closed)));
        assert!(matches!(
            handle.subscribe(query()),
            Err(ServerError::Closed)
        ));
        assert!(matches!(
            handle.subscribe_with_mailbox(query(), 4),
            Err(ServerError::Closed)
        ));
        assert!(matches!(
            handle.unsubscribe(sub.id()),
            Err(ServerError::Closed)
        ));
        assert!(matches!(handle.compact(), Err(ServerError::Closed)));
        assert!(matches!(
            handle.publish(b"<a/>".to_vec()),
            Err(ServerError::Closed)
        ));
        assert!(matches!(
            handle.publish_str("<a/>"),
            Err(ServerError::Closed)
        ));
        assert_eq!(server.shutdown().subscribes, 1);
    }
}
