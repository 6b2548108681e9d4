//! The dissemination server: N worker threads (one by default), each
//! owning its own [`IndexedBank`] and warm lookup-only parser over **one
//! shared symbol table**, and its own inbox — with documents dealt
//! round-robin by publish sequence number and deliveries released in
//! that order through one [`Outbox`].
//!
//! ## Churn: worker 0 decides, the rest follow
//!
//! Every worker's bank holds the same subscription set, so churn must
//! produce the same [`SubscriptionId`] in all of them. Ids are
//! deterministic (0, 1, 2, … in subscribe order, never recycled), so a
//! handle sends each churn command to worker 0 first — its bank accepts
//! or rejects the query, registers or drops the subscriber's outlet, and
//! replies — and then broadcasts reply-less copies to workers 1.., all
//! under the churn mutex: every bank sees the same successful
//! subscribes in the same order and assigns the same ids.
//!
//! ## Delivery order
//!
//! A worker finishes its document, resolves bank slots to ids, and
//! reports under the outbox lock. A report that is next in publish
//! order is delivered on the spot from the worker's own buffers and
//! releases whatever was parked behind it; one that is ahead of its turn
//! is parked. An outlet is registered before its subscribe is broadcast,
//! so no report can mention a subscription the outbox does not know.
//!
//! ## Lock order
//!
//! The churn lock first, then an inbox's or the outbox's; those two are
//! leaves. Nothing blocks while holding the outbox lock (`try_send`
//! never waits), and workers never take the churn lock — so a handle
//! may hold it while it waits for worker replies. A departed subscriber
//! (receiver dropped) is found on delivery, loses its outlet at once,
//! and is parked on [`Outbox::departed`] for the next churn-lock holder
//! to withdraw from the banks.
//!
//! A poisoned churn or outbox lock closes the server: the caller that
//! meets it gets [`ServerError::Closed`], and so does every later call.

use crate::inbox::Inbox;
use crate::sub::{Delivery, SubShared, Subscription};
use crate::{ServerConfig, ServerError};
use fx_core::{IndexedBank, Match, SubscriptionId, UnsupportedQuery};
use fx_xml::{Span, StreamingParser, Symbols};
use fx_xpath::Query;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A published document and its place in the stream.
pub(crate) type Doc = (u64, Arc<[u8]>);

/// A match resolved from its worker-local slot to the global id:
/// subscription, ordinal, span.
type Resolved = (SubscriptionId, u64, Span);

/// One queued churn / introspection operation, applied by a worker
/// between documents, in submission order. Worker 0's copy carries the
/// reply channel (and, for a subscribe, the outlet to register); the
/// copies broadcast to workers 1.. carry `None`.
pub(crate) enum Command {
    Subscribe {
        query: Query,
        decide: Option<(Outlet, SyncSender<Result<SubscriptionId, UnsupportedQuery>>)>,
    },
    Unsubscribe {
        id: SubscriptionId,
        reply: Option<SyncSender<bool>>,
    },
    Compact {
        reply: Option<SyncSender<bool>>,
    },
    /// The barrier: the worker drains its document queue, then replies
    /// with its slice of the stats.
    Stats {
        reply: SyncSender<ServerStats>,
    },
}

/// A cumulative snapshot of the server's activity, taken at a document
/// boundary by [`ServerHandle::stats`] (which therefore also acts as a
/// barrier: it returns only after every previously queued command and
/// document has been processed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Documents fully processed.
    pub documents: u64,
    /// Documents rejected by the parser (malformed XML); the stream
    /// continues with the next document.
    pub parse_errors: u64,
    /// Matches delivered into subscriber mailboxes.
    pub deliveries: u64,
    /// Matches dropped because a subscriber's mailbox was full (the sum
    /// of every subscriber's lag counter, including departed ones).
    pub dropped_deliveries: u64,
    /// Subscriptions accepted over the server's lifetime.
    pub subscribes: u64,
    /// Subscriptions withdrawn (explicit and auto-unsubscribed).
    pub unsubscribes: u64,
    /// Currently live subscriptions.
    pub live_subscriptions: usize,
    /// Subscribers withdrawn automatically after their mailbox receiver
    /// was dropped.
    pub auto_unsubscribes: u64,
    /// Bank compactions performed (policy-driven and explicit).
    pub compactions: u64,
    /// Residual automata compiled since startup — flat under churn over
    /// known query shapes (the no-rebuild guarantee, observable).
    pub residual_builds: u64,
}

/// The server-side end of one subscription: the delivery sender (owned
/// *only* here, so dropping it on withdrawal disconnects the mailbox)
/// plus the counters shared with the subscriber.
pub(crate) struct Outlet {
    tx: SyncSender<Delivery>,
    shared: Arc<SubShared>,
}

/// All delivery state, behind one leaf mutex.
#[derive(Default)]
struct Outbox {
    outlets: HashMap<SubscriptionId, Outlet>,
    /// The reorder buffer: reports that arrived ahead of their turn.
    parked: BTreeMap<u64, (Arc<[u8]>, Vec<Resolved>)>,
    next_seq: u64,
    deliveries: u64,
    dropped: u64,
    /// Subscribers whose receiver vanished, still live in the banks.
    departed: Vec<SubscriptionId>,
}

impl Outbox {
    /// Takes one finished document's matches: delivered now if `seq` is
    /// next in publish order (together with any run parked behind it),
    /// parked otherwise.
    fn report(&mut self, seq: u64, document: Arc<[u8]>, matches: &[Resolved]) {
        if seq != self.next_seq {
            self.parked.insert(seq, (document, matches.to_vec()));
            return;
        }
        self.deliver(seq, &document, matches);
        self.next_seq += 1;
        while let Some((document, matches)) = self.parked.remove(&self.next_seq) {
            self.deliver(self.next_seq, &document, &matches);
            self.next_seq += 1;
        }
    }

    fn deliver(&mut self, doc_seq: u64, document: &Arc<[u8]>, matches: &[Resolved]) {
        for &(id, ordinal, span) in matches {
            let Some(outlet) = self.outlets.get(&id) else {
                continue; // withdrawn, or departed earlier in this document
            };
            let delivery = Delivery {
                subscription: id,
                doc_seq,
                ordinal,
                span,
                document: Arc::clone(document),
            };
            match outlet.tx.try_send(delivery) {
                Ok(()) => {
                    outlet.shared.delivered.fetch_add(1, Ordering::Relaxed);
                    self.deliveries += 1;
                }
                Err(TrySendError::Full(_)) => {
                    // A stalled subscriber lags; the stream does not stop.
                    outlet.shared.dropped.fetch_add(1, Ordering::Relaxed);
                    self.dropped += 1;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.outlets.remove(&id);
                    self.departed.push(id);
                }
            }
        }
    }

    /// Forgets a subscription the banks have withdrawn. Dropping the
    /// outlet drops the last delivery sender, which wakes a blocked
    /// [`Subscription::recv`].
    fn withdraw(&mut self, id: SubscriptionId) {
        self.outlets.remove(&id);
        self.departed.retain(|&d| d != id);
    }

    /// Shutdown: every worker has exited, so no report is still to come
    /// — a gap in the sequence is a `publish` that lost the race with
    /// the close. Releases the reorder buffer in sequence order.
    fn flush(&mut self) {
        for (seq, (document, matches)) in std::mem::take(&mut self.parked) {
            self.deliver(seq, &document, &matches);
        }
    }
}

/// Lifetime churn counts, guarded by the mutex that serializes
/// subscribe / unsubscribe / compact / stats (publishing never takes
/// it).
#[derive(Default)]
struct Churn {
    subscribes: u64,
    unsubscribes: u64,
    auto_unsubscribes: u64,
}

struct Shared {
    inboxes: Vec<Inbox>,
    seq: AtomicU64,
    churn: Mutex<Churn>,
    outbox: Mutex<Outbox>,
    mailbox_capacity: usize,
}

impl Shared {
    fn close(&self) {
        for inbox in &self.inboxes {
            inbox.close();
        }
    }

    /// A poisoned lock means a thread died mid-update: fail closed.
    fn lock<'a, T>(&self, mutex: &'a Mutex<T>) -> Result<MutexGuard<'a, T>, ServerError> {
        mutex.lock().map_err(|_| {
            self.close();
            ServerError::Closed
        })
    }

    /// Takes the churn lock and withdraws parked departures first, so a
    /// server that is never asked for stats still sheds dead queries.
    fn churn(&self) -> Result<MutexGuard<'_, Churn>, ServerError> {
        let mut churn = self.lock(&self.churn)?;
        self.sweep(&mut churn)?;
        Ok(churn)
    }

    /// Sends worker 0 a command built around a reply channel and waits
    /// for the answer.
    fn ask<T>(&self, command: impl FnOnce(SyncSender<T>) -> Command) -> Result<T, ServerError> {
        let (reply, done) = sync_channel(1);
        self.inboxes[0].command(command(reply))?;
        done.recv().map_err(|_| ServerError::Closed)
    }

    /// Sends workers 1.. their copy of what worker 0 just decided. Must
    /// hold the churn lock.
    fn follow(&self, command: impl Fn() -> Command) -> Result<(), ServerError> {
        self.inboxes[1..]
            .iter()
            .try_for_each(|inbox| inbox.command(command()))
    }

    /// Must hold the churn lock.
    fn withdraw(&self, id: SubscriptionId) -> Result<bool, ServerError> {
        let gone = self.ask(|reply| Command::Unsubscribe {
            id,
            reply: Some(reply),
        })?;
        if gone {
            self.follow(|| Command::Unsubscribe { id, reply: None })?;
        }
        Ok(gone)
    }

    /// Turns outbox-detected departures into real withdrawals; `true`
    /// if there were any.
    fn sweep(&self, churn: &mut Churn) -> Result<bool, ServerError> {
        let departed = std::mem::take(&mut self.lock(&self.outbox)?.departed);
        for &id in &departed {
            // Always live: an explicit unsubscribe strikes the id off
            // the list in the critical section that drops its outlet.
            self.withdraw(id)?;
            churn.unsubscribes += 1;
            churn.auto_unsubscribes += 1;
        }
        Ok(!departed.is_empty())
    }

    /// Every worker drains its document queue and replies with its
    /// slice of the stats. Replies are collected only after all
    /// commands are queued, so the workers drain in parallel.
    fn barrier(&self) -> Result<Vec<ServerStats>, ServerError> {
        let replies = self
            .inboxes
            .iter()
            .map(|inbox| {
                let (reply, done) = sync_channel(1);
                inbox.command(Command::Stats { reply })?;
                Ok(done)
            })
            .collect::<Result<Vec<_>, ServerError>>()?;
        replies
            .into_iter()
            .map(|done| done.recv().map_err(|_| ServerError::Closed))
            .collect()
    }
}

/// Sums the workers' slices (document counts add up; worker 0's bank
/// speaks for all of them) and fills in the shared counters.
fn snapshot(workers: &[ServerStats], churn: &Churn, outbox: &Outbox) -> ServerStats {
    let mut stats = workers[0].clone();
    for worker in &workers[1..] {
        stats.documents += worker.documents;
        stats.parse_errors += worker.parse_errors;
    }
    stats.deliveries = outbox.deliveries;
    stats.dropped_deliveries = outbox.dropped;
    stats.subscribes = churn.subscribes;
    stats.unsubscribes = churn.unsubscribes;
    stats.auto_unsubscribes = churn.auto_unsubscribes;
    stats
}

/// One worker: a bank and a warm lookup-only parser over the shared
/// symbol table — a name a late subscription interned reaches the parser
/// at its next document, unannounced — processing every
/// `seq % workers == index` document. Parser and bank share the thread,
/// so each event goes from one to the other as it completes
/// (`Frontend::drive` into `IndexedBank::process_sym_to`), borrowed
/// from the document's bytes; no run of events is materialized.
struct Worker {
    index: usize,
    shared: Arc<Shared>,
    bank: IndexedBank,
    parser: StreamingParser,
    /// Per-document buffers, kept across documents.
    raw: Vec<Match>,
    resolved: Vec<Resolved>,
    documents: u64,
    parse_errors: u64,
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

    /// A reply that cannot be sent (or an outbox that cannot be locked,
    /// which drops the reply) reads as [`ServerError::Closed`] in the
    /// waiting handle.
    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Subscribe { query, decide } => {
                let result = self.bank.subscribe(&query);
                let Some((outlet, reply)) = decide else {
                    result.expect("worker 0's bank accepted this query");
                    return;
                };
                if let Ok(id) = result {
                    let Ok(mut outbox) = self.shared.lock(&self.shared.outbox) else {
                        return;
                    };
                    outbox.outlets.insert(id, outlet);
                }
                let _ = reply.send(result);
            }
            Command::Unsubscribe { id, reply } => {
                let gone = self.bank.unsubscribe(id);
                let Some(reply) = reply else { return };
                if gone {
                    let Ok(mut outbox) = self.shared.lock(&self.shared.outbox) else {
                        return;
                    };
                    outbox.withdraw(id);
                }
                let _ = reply.send(gone);
            }
            Command::Compact { reply } => {
                let did = self.bank.compact();
                if let Some(reply) = reply {
                    let _ = reply.send(did);
                }
            }
            Command::Stats { reply } => {
                // The barrier contract: everything queued before the
                // stats call — commands (they precede it in the command
                // queue) *and* documents — is reflected in the snapshot.
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
        match result {
            Ok(()) => self.documents += 1,
            Err(_) => self.parse_errors += 1,
        }
        // Slot → id after the run (the bank is exclusively borrowed
        // during it) and before the report leaves this thread: slots are
        // worker-local and renumber on compaction, ids never do.
        let bank = &self.bank;
        self.resolved.clear();
        self.resolved.extend(self.raw.iter().filter_map(|m| {
            bank.subscription_of(m.query)
                .map(|id| (id, m.ordinal, m.span))
        }));
        if let Ok(mut outbox) = self.shared.lock(&self.shared.outbox) {
            outbox.report(seq, document, &self.resolved);
        }
    }

    /// This worker's slice of the [`ServerStats`]; [`snapshot`] merges.
    fn stats(&self) -> ServerStats {
        let bank = &self.bank;
        ServerStats {
            documents: self.documents,
            parse_errors: self.parse_errors,
            live_subscriptions: bank.live_subscriptions(),
            compactions: bank.compactions(),
            residual_builds: bank.residual_builds(),
            ..ServerStats::default()
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
                let mut bank = IndexedBank::new_reporting_with_symbols(&[], Arc::clone(&symbols))
                    .expect("an empty bank always builds");
                bank.set_compaction_policy(config.compaction);
                let worker = Worker {
                    index,
                    shared: Arc::clone(&shared),
                    bank,
                    parser: StreamingParser::with_symbols(Arc::clone(&symbols)).lookup_only(),
                    raw: Vec::new(),
                    resolved: Vec::new(),
                    documents: 0,
                    parse_errors: 0,
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
        let mut churn = self
            .shared
            .churn
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.shared.close();
        let workers: Vec<ServerStats> = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("fx-server worker thread panicked"))
            .collect();
        let mut outbox = self
            .shared
            .outbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        outbox.flush();
        // Departures no churn operation got to withdraw: the banks are
        // gone, so count them instead.
        let unswept = outbox.departed.len();
        churn.unsubscribes += unswept as u64;
        churn.auto_unsubscribes += unswept as u64;
        let mut stats = snapshot(&workers, &churn, &outbox);
        stats.live_subscriptions -= unswept;
        stats
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
    /// Registers a standing query on every worker and returns its
    /// [`Subscription`] mailbox. Applied at each worker's next document
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
        let mut churn = self.shared.churn()?;
        // Worker 0 gets the query itself; only its followers cost a
        // clone each.
        let copies: Vec<Query> = self.shared.inboxes[1..]
            .iter()
            .map(|_| query.clone())
            .collect();
        let (tx, rx) = sync_channel(mailbox.max(1));
        let shared = Arc::new(SubShared::default());
        let outlet = Outlet {
            tx,
            shared: Arc::clone(&shared),
        };
        let id = self
            .shared
            .ask(|reply| Command::Subscribe {
                query,
                decide: Some((outlet, reply)),
            })?
            .map_err(ServerError::Unsupported)?;
        churn.subscribes += 1;
        for (inbox, query) in self.shared.inboxes[1..].iter().zip(copies) {
            inbox.command(Command::Subscribe {
                query,
                decide: None,
            })?;
        }
        Ok(Subscription { id, rx, shared })
    }

    /// Withdraws a subscription from every worker at its next document
    /// boundary. `false` if the id was never live or is already gone.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<bool, ServerError> {
        let mut churn = self.shared.churn()?;
        let gone = self.shared.withdraw(id)?;
        churn.unsubscribes += u64::from(gone);
        Ok(gone)
    }

    /// Queues one XML document for evaluation against every live
    /// subscription: it takes the next sequence number and goes to
    /// worker `seq % workers`. Blocks while that worker's document queue
    /// is at capacity (upstream backpressure); returns `Err` only when
    /// the server is shut down.
    pub fn publish(&self, doc: impl Into<Arc<[u8]>>) -> Result<(), ServerError> {
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let worker = (seq % self.shared.inboxes.len() as u64) as usize;
        self.shared.inboxes[worker].publish((seq, doc.into()))
    }

    /// [`ServerHandle::publish`] for string documents.
    pub fn publish_str(&self, doc: &str) -> Result<(), ServerError> {
        self.publish(doc.as_bytes().to_vec())
    }

    /// Forces a bank compaction (normally policy-driven) on every worker
    /// at its next document boundary. `true` if tombstones were folded
    /// away.
    pub fn compact(&self) -> Result<bool, ServerError> {
        let _churn = self.shared.churn()?;
        let did = self
            .shared
            .ask(|reply| Command::Compact { reply: Some(reply) })?;
        self.shared.follow(|| Command::Compact { reply: None })?;
        Ok(did)
    }

    /// A cumulative activity snapshot. Synchronous: acts as a barrier
    /// for everything queued before it (commands and documents alike) —
    /// every worker drains its own queue first. Subscribers found
    /// departed by then are withdrawn and counted in the same snapshot.
    /// (Deliveries are released in publish order, so a `publish` still
    /// in flight on another thread holds back those of later documents
    /// until it lands.)
    pub fn stats(&self) -> Result<ServerStats, ServerError> {
        let shared = &*self.shared;
        let mut churn = shared.lock(&shared.churn)?;
        // Sweep *after* the barrier, which is what uncovers departures;
        // a sweep changes worker 0's bank counters, so go round again.
        let workers = loop {
            let workers = shared.barrier()?;
            if !shared.sweep(&mut churn)? {
                break workers;
            }
        };
        let outbox = shared.lock(&shared.outbox)?;
        Ok(snapshot(&workers, &churn, &outbox))
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").finish_non_exhaustive()
    }
}

// Worker threads own a bank and a parser (and the symbols both share)
// and the handles cross threads; regressions in these bounds should fail the build
// here, not at a distant spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Worker>();
    assert_send::<Subscription>();
    assert_send_sync::<ServerHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    /// An outbox with one subscriber `id`, and the mailbox to read back.
    fn outbox_with(id: SubscriptionId) -> (Outbox, Subscription) {
        let (tx, rx) = sync_channel(16);
        let shared = Arc::new(SubShared::default());
        let outlet = Outlet {
            tx,
            shared: Arc::clone(&shared),
        };
        let mut outbox = Outbox::default();
        outbox.outlets.insert(id, outlet);
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
        // shutdown's flush still releases 4.
        outbox.flush();
        assert_eq!(seqs(&sub), [4]);
        assert_eq!(outbox.deliveries, 4);
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
