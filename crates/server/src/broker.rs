//! The server's protocol, thread-free: ids, outlets, drop-or-depart,
//! routing, the reorder buffer, the departure sweep, which commands a
//! handle waits on, and the stats merge. The shell owns threads, locks
//! and channels and is a [`Port`] here, a subscriber a [`Mailbox`];
//! [`Churn`] sits behind the churn lock, [`Outbox`] behind the outbox's.

use crate::sub::{Delivery, Document};
use crate::{ServerError, ServerStats};
use fx_core::SubscriptionId;
use fx_xml::Span;
use std::collections::{BTreeMap, HashMap};

type Result<T> = std::result::Result<T, ServerError>;

/// A match resolved from its worker-local slot to the global id:
/// subscription, ordinal, span.
pub(crate) type Resolved = (SubscriptionId, u64, Span);

/// A delivery was queued, dropped for this subscriber only (at
/// capacity), or met a mailbox nobody will read again.
pub(crate) enum Offer {
    Sent,
    Full,
    Gone,
}

pub(crate) trait Mailbox {
    fn offer(&mut self, delivery: Delivery) -> Offer;
}

/// The shell, as the core sees it.
pub(crate) trait Port: Sized {
    type Mailbox: Mailbox;
    type Query: Clone;
    /// Where a worker answers an awaited command, and the handle's end.
    type Reply<A>;
    type Pending<A>;
    fn workers(&self) -> usize;
    /// Runs `f` in the outbox's critical section.
    fn outbox<T>(&self, f: impl FnOnce(&mut Outbox<Self::Mailbox>) -> T) -> Result<T>;
    fn push(&self, worker: usize, command: Command<Self>) -> Result<()>;
    fn reply<A>(&self) -> (Self::Reply<A>, Self::Pending<A>);
    fn wait<A>(&self, pending: Self::Pending<A>) -> Result<A>;
}

/// What a worker applies between documents, in the order its inbox got
/// it; churn reaches every worker as the same command. `Stats` is the
/// barrier: the worker drains its document queue, then answers.
pub(crate) enum Command<P: Port> {
    Subscribe(P::Query, SubscriptionId),
    Unsubscribe(SubscriptionId),
    Compact(Option<P::Reply<bool>>),
    Stats(P::Reply<ServerStats>),
}

impl<P: Port> Command<P> {
    /// A handle waits on this command, so it wakes an idle worker; churn
    /// takes effect at the next document and waits for one.
    pub(crate) fn awaited(&self) -> bool {
        matches!(self, Command::Stats(_) | Command::Compact(Some(_)))
    }
}

/// Which worker evaluates the document with sequence number `seq`.
pub(crate) fn route(seq: u64, workers: usize) -> usize {
    (seq % workers as u64) as usize
}

pub(crate) struct Outbox<M> {
    outlets: HashMap<SubscriptionId, M>,
    /// Reports that arrived ahead of their turn.
    parked: BTreeMap<u64, (Document, Vec<Resolved>)>,
    next_seq: u64,
    deliveries: u64,
    dropped: u64,
    /// Subscribers whose mailbox is gone, still live in the banks.
    departed: Vec<SubscriptionId>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Outbox<M> {
        let (outlets, parked, departed) = Default::default();
        let [next_seq, deliveries, dropped] = [0; 3];
        Outbox {
            outlets,
            parked,
            next_seq,
            deliveries,
            dropped,
            departed,
        }
    }
}

impl<M: Mailbox> Outbox<M> {
    pub(crate) fn register(&mut self, id: SubscriptionId, mailbox: M) {
        self.outlets.insert(id, mailbox);
    }

    /// Takes one finished document's matches: delivered now if `seq` is
    /// next in publish order (with any run parked behind it), else parked.
    pub(crate) fn report(&mut self, seq: u64, document: Document, matches: &[Resolved]) {
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

    fn deliver(&mut self, doc_seq: u64, document: &Document, matches: &[Resolved]) {
        for &(subscription, ordinal, span) in matches {
            let Some(mailbox) = self.outlets.get_mut(&subscription) else {
                continue; // withdrawn, or departed earlier in this document
            };
            let document = document.clone();
            match mailbox.offer(Delivery {
                subscription,
                doc_seq,
                ordinal,
                span,
                document,
            }) {
                Offer::Sent => self.deliveries += 1,
                Offer::Full => self.dropped += 1,
                Offer::Gone => {
                    self.outlets.remove(&subscription);
                    self.departed.push(subscription);
                }
            }
        }
    }

    /// Forgets a subscription before the banks hear of it, so nothing
    /// reaches its mailbox afterwards; `false` if it was not live (a live
    /// subscription has an outlet or is departed).
    fn withdraw(&mut self, id: SubscriptionId) -> bool {
        let departed = self.departed.len();
        self.departed.retain(|&d| d != id);
        self.outlets.remove(&id).is_some() || self.departed.len() < departed
    }
}

/// Lifetime churn counts. Each method is one handle call under the churn
/// lock, which serializes them, so every worker sees churn in one order.
#[derive(Default)]
pub(crate) struct Churn {
    /// Accepted subscribes, and so the raw value of the next id: ids are
    /// dense and never recycled, exactly as every bank assigns them.
    subscribes: u64,
    unsubscribes: u64,
    auto_unsubscribes: u64,
}

impl Churn {
    /// Registers the outlet, then queues the subscribe on every worker,
    /// so no report can name an id the outbox does not know. The caller
    /// has checked the query.
    pub(crate) fn subscribe<P: Port>(
        &mut self,
        port: &P,
        query: P::Query,
        mailbox: P::Mailbox,
    ) -> Result<SubscriptionId> {
        let id = SubscriptionId::from_raw(self.subscribes);
        self.outbox(port, |o| o.register(id, mailbox))?;
        broadcast(port, || Command::Subscribe(query.clone(), id))?;
        self.subscribes += 1;
        Ok(id)
    }

    /// Withdraws the outlet, then queues the unsubscribe on every worker,
    /// so nothing is delivered once this returns.
    pub(crate) fn unsubscribe<P: Port>(&mut self, port: &P, id: SubscriptionId) -> Result<bool> {
        let (live, _) = self.outbox(port, |o| o.withdraw(id))?;
        if live {
            broadcast(port, || Command::Unsubscribe(id))?;
            self.unsubscribes += 1;
        }
        Ok(live)
    }

    /// Every bank holds the same set, so worker 0's copy answers for all.
    pub(crate) fn compact<P: Port>(&mut self, port: &P) -> Result<bool> {
        self.outbox(port, |_| ())?;
        let (reply, pending) = port.reply();
        let mut reply = Some(reply);
        broadcast(port, || Command::Compact(reply.take()))?;
        port.wait(pending)
    }

    /// The barrier, then the sweep: the barrier is what uncovers
    /// departures, and a sweep changes the banks' counters, so it goes
    /// round again until a barrier uncovers none.
    pub(crate) fn stats<P: Port>(&mut self, port: &P) -> Result<ServerStats> {
        loop {
            // Every command is queued before any answer is awaited, so
            // the workers drain in parallel.
            let pending = (0..port.workers())
                .map(|worker| {
                    let (reply, pending) = port.reply();
                    port.push(worker, Command::Stats(reply)).map(|()| pending)
                })
                .collect::<Result<Vec<_>>>()?;
            let workers = pending.into_iter().map(|pending| port.wait(pending));
            let workers = workers.collect::<Result<Vec<_>>>()?;
            let (counts, swept) = self.outbox(port, |o| (o.deliveries, o.dropped))?;
            if !swept {
                return Ok(self.snapshot(&workers, counts));
            }
        }
    }

    /// Closes the books once every worker has exited. No report is still
    /// to come — a gap in the sequence is a `publish` that lost the race
    /// with the close — so the reorder buffer is released in order, and
    /// the departures no churn call withdrew count as auto-unsubscribes.
    pub(crate) fn close<M: Mailbox>(
        &mut self,
        outbox: &mut Outbox<M>,
        workers: &[ServerStats],
    ) -> ServerStats {
        for (seq, (document, matches)) in std::mem::take(&mut outbox.parked) {
            outbox.deliver(seq, &document, &matches);
        }
        let unswept = outbox.departed.len();
        self.unsubscribes += unswept as u64;
        self.auto_unsubscribes += unswept as u64;
        let mut stats = self.snapshot(workers, (outbox.deliveries, outbox.dropped));
        stats.live_subscriptions -= unswept;
        stats
    }

    /// Runs `f` in one outbox critical section that also takes the
    /// departures found since the last, then withdraws those from the
    /// banks; `true` if there were any. Each is still live: an explicit
    /// unsubscribe strikes its id off the list in the section that drops
    /// its outlet.
    fn outbox<P: Port, T>(
        &mut self,
        port: &P,
        f: impl FnOnce(&mut Outbox<P::Mailbox>) -> T,
    ) -> Result<(T, bool)> {
        let (out, departed) = port.outbox(|o| (f(o), std::mem::take(&mut o.departed)))?;
        let swept = !departed.is_empty();
        for id in departed {
            broadcast(port, || Command::Unsubscribe(id))?;
            self.unsubscribes += 1;
            self.auto_unsubscribes += 1;
        }
        Ok((out, swept))
    }

    /// Sums the workers' slices (document counts add up; worker 0's bank
    /// speaks for all of them) and fills in the shared counters.
    fn snapshot(&self, workers: &[ServerStats], (deliveries, dropped): (u64, u64)) -> ServerStats {
        let documents = workers.iter().map(|w| w.documents).sum();
        let parse_errors = workers.iter().map(|w| w.parse_errors).sum();
        ServerStats {
            documents,
            parse_errors,
            deliveries,
            dropped_deliveries: dropped,
            subscribes: self.subscribes,
            unsubscribes: self.unsubscribes,
            auto_unsubscribes: self.auto_unsubscribes,
            ..workers[0].clone()
        }
    }
}

fn broadcast<P: Port>(port: &P, mut command: impl FnMut() -> Command<P>) -> Result<()> {
    (0..port.workers()).try_for_each(|worker| port.push(worker, command()))
}

#[cfg(test)]
mod tests {
    //! The checker: the core driven by a model shell — workers that take
    //! work, apply commands and report in separate steps, a fake bank (a
    //! document is a set of topics; a subscription matches its topic once
    //! its worker applied it) and `Vec` mailboxes — against a sequential
    //! specification. After each handle action — an outbox critical
    //! section, a push, a publish, a subscriber dropping or reading its
    //! mailbox — the workers it touches may take any number of steps
    //! (`Model::preempt`): the points where a real worker can act between
    //! a handle's lock acquisitions. Small scripts run under every such
    //! schedule, longer seeded ones under random schedules.
    //!
    //! The specification linearizes `subscribe` and `unsubscribe` at their
    //! first outbox step, which opens the call, and reads:
    //! - a subscriber's mailbox is offered exactly the matches released
    //!   while it is live, in `doc_seq` order, once each — so nothing after
    //!   `unsubscribe` returned, and `delivered + dropped` equals the
    //!   matches confirmed;
    //! - a document published after `subscribe` returned that carries the
    //!   subscription's topic is one of them (an earlier one may be too);
    //! - `stats()` and `shutdown()` counts equal the specification's.

    use super::*;
    use std::cell::{Cell, RefCell, RefMut};
    use std::collections::VecDeque;
    use std::rc::Rc;

    type Topic = u8;
    type Slot<A> = Rc<RefCell<Option<A>>>;

    /// Every choice a run makes. Exhaustive mode replays a prefix and
    /// extends it with first choices; [`Sched::next`] then moves to the
    /// next unexplored schedule (a depth-first walk over re-executions).
    /// A nonzero `rng` makes every choice at random instead.
    #[derive(Default)]
    struct Sched {
        trace: Vec<(usize, usize)>,
        at: usize,
        rng: u64,
    }

    impl Sched {
        fn seeded(seed: u64) -> Sched {
            let rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            Sched {
                rng,
                ..Sched::default()
            }
        }

        fn random(&mut self, n: usize) -> usize {
            // xorshift64*
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }

        fn choose(&mut self, n: usize) -> usize {
            if n <= 1 {
                return 0;
            }
            if self.rng != 0 {
                return self.random(n);
            }
            if self.at == self.trace.len() {
                self.trace.push((0, n));
            }
            let (choice, of) = self.trace[self.at];
            assert_eq!(of, n, "a replay meets the same choices");
            self.at += 1;
            choice
        }

        fn next(&mut self) -> bool {
            self.at = 0;
            while let Some((choice, of)) = self.trace.pop() {
                if choice + 1 < of {
                    self.trace.push((choice + 1, of));
                    return true;
                }
            }
            false
        }
    }

    /// A test mailbox: what it was offered, as `(doc_seq, queued)`.
    #[derive(Default)]
    struct Offers {
        offered: Vec<(u64, bool)>,
        capacity: usize,
        backlog: usize,
        /// The subscriber dropped its receiver.
        hung_up: bool,
        /// A delivery found out (the offer answered `Gone`).
        gone_seen: bool,
    }

    #[derive(Clone, Default)]
    struct Vecbox(Rc<RefCell<Offers>>);

    impl Mailbox for Vecbox {
        fn offer(&mut self, delivery: Delivery) -> Offer {
            let mut b = self.0.borrow_mut();
            if b.hung_up {
                assert!(!b.gone_seen, "a departed outlet is offered nothing");
                b.gone_seen = true;
                return Offer::Gone;
            }
            let queued = b.backlog < b.capacity;
            b.offered.push((delivery.doc_seq, queued));
            b.backlog += usize::from(queued);
            if queued {
                Offer::Sent
            } else {
                Offer::Full
            }
        }
    }

    enum Held {
        Idle,
        Commands(VecDeque<Command<Model>>),
        /// A document evaluated and not yet reported, and the commands
        /// to resume after (a stats barrier draining its queue).
        Report(u64, Document, Vec<Resolved>, VecDeque<Command<Model>>),
        Done,
    }

    impl Held {
        fn resume(cmds: VecDeque<Command<Model>>) -> Held {
            if cmds.is_empty() {
                Held::Idle
            } else {
                Held::Commands(cmds)
            }
        }
    }

    /// A model worker: its inbox and its fake bank.
    struct Worker {
        cmds: VecDeque<Command<Model>>,
        docs: VecDeque<(u64, Document)>,
        awaited: bool,
        closed: bool,
        held: Held,
        bank: BTreeMap<SubscriptionId, Topic>,
        next_id: u64,
        tombstones: usize,
        slice: ServerStats,
    }

    impl Worker {
        fn new() -> Worker {
            Worker {
                cmds: VecDeque::new(),
                docs: VecDeque::new(),
                awaited: false,
                closed: false,
                held: Held::Idle,
                bank: BTreeMap::new(),
                next_id: 0,
                tombstones: 0,
                slice: ServerStats::default(),
            }
        }

        /// `Inbox::take_work`'s rule: churn alone is not work.
        fn runnable(&self) -> bool {
            match self.held {
                Held::Idle => {
                    let cmds = !self.cmds.is_empty() && self.awaited;
                    cmds || !self.docs.is_empty() || self.closed
                }
                Held::Done => false,
                _ => true,
            }
        }

        fn evaluate(
            &mut self,
            (seq, doc): (u64, Document),
            then: VecDeque<Command<Model>>,
        ) -> Held {
            self.slice.documents += 1;
            let matches = self.bank.iter().filter(|(_, topic)| doc.contains(topic));
            let matches = matches.map(|(&id, _)| (id, 0, Span::default())).collect();
            Held::Report(seq, doc, matches, then)
        }

        /// Applies commands up to the first that another thread sees.
        fn apply(&mut self, mut cmds: VecDeque<Command<Model>>) -> Held {
            while let Some(cmd) = cmds.pop_front() {
                match cmd {
                    Command::Subscribe(topic, id) => {
                        assert_eq!(
                            id.as_u64(),
                            self.next_id,
                            "the bank decides as the handle did"
                        );
                        self.next_id += 1;
                        self.bank.insert(id, topic);
                    }
                    Command::Unsubscribe(id) => {
                        let gone = self.bank.remove(&id).is_some();
                        assert!(gone, "the handle withdraws only live ids");
                        self.tombstones += 1;
                    }
                    Command::Compact(reply) => {
                        let did = std::mem::take(&mut self.tombstones) > 0;
                        self.slice.compactions += u64::from(did);
                        if let Some(reply) = reply {
                            *reply.borrow_mut() = Some(did);
                            return Held::resume(cmds);
                        }
                    }
                    Command::Stats(reply) => {
                        let Some(doc) = self.docs.pop_front() else {
                            *reply.borrow_mut() = Some(self.stats());
                            return Held::resume(cmds);
                        };
                        cmds.push_front(Command::Stats(reply));
                        return self.evaluate(doc, cmds);
                    }
                }
            }
            Held::Idle
        }

        fn stats(&self) -> ServerStats {
            let live_subscriptions = self.bank.len();
            ServerStats {
                live_subscriptions,
                ..self.slice.clone()
            }
        }
    }

    /// What the specification tracks per subscription (index = raw id).
    struct SubSpec {
        topic: Topic,
        live: bool,
        /// Documents published when `subscribe` returned.
        returned_at: Option<u64>,
        explicit: bool,
        swept: bool,
        expected: Vec<u64>,
        mailbox: Vecbox,
    }

    #[derive(Default)]
    struct Spec {
        published: Vec<Vec<Topic>>,
        subs: Vec<SubSpec>,
        reported: BTreeMap<u64, Vec<Resolved>>,
        next: u64,
        confirmed: u64,
        explicit: u64,
        swept: u64,
        tombstones: usize,
        compactions: u64,
    }

    impl Spec {
        /// Reports are released in `doc_seq` order, each the moment the
        /// run before it is complete.
        fn report(&mut self, seq: u64, matches: &[Resolved]) {
            self.reported.insert(seq, matches.to_vec());
            while let Some(matches) = self.reported.remove(&self.next) {
                let topics = &self.published[self.next as usize];
                for (raw, sub) in self.subs.iter_mut().enumerate() {
                    let id = SubscriptionId::from_raw(raw as u64);
                    let matched = matches.iter().any(|m| m.0 == id);
                    let after = sub.returned_at.is_some_and(|at| self.next >= at);
                    if sub.live && after && topics.contains(&sub.topic) {
                        assert!(matched, "doc {} published after {id} subscribed", self.next);
                    }
                    if sub.live && matched {
                        sub.expected.push(self.next);
                        self.confirmed += 1;
                    }
                }
                self.next += 1;
            }
        }

        /// Departures found so far are withdrawn by the next outbox step
        /// of a churn call (or counted at the close).
        fn sweep(&mut self, except: Option<usize>) {
            for (raw, sub) in self.subs.iter_mut().enumerate() {
                let found = sub.mailbox.0.borrow().gone_seen;
                if found && !sub.explicit && !sub.swept && Some(raw) != except {
                    sub.swept = true;
                    self.swept += 1;
                    self.tombstones += 1;
                }
            }
        }

        fn check(&self, stats: &ServerStats) {
            let boxes = self.subs.iter().map(|s| s.mailbox.0.borrow());
            let (mut sent, mut dropped) = (0, 0);
            for (sub, b) in self.subs.iter().zip(boxes) {
                let seqs: Vec<u64> = b.offered.iter().map(|o| o.0).collect();
                assert_eq!(
                    seqs, sub.expected,
                    "a mailbox gets what was confirmed for it"
                );
                sent += b.offered.iter().filter(|o| o.1).count() as u64;
                dropped += b.offered.iter().filter(|o| !o.1).count() as u64;
            }
            assert_eq!(
                sent + dropped,
                self.confirmed,
                "delivered + dropped = confirmed"
            );
            let subscribes = self.subs.len() as u64;
            let unsubscribes = self.explicit + self.swept;
            let want = ServerStats {
                documents: self.published.len() as u64,
                parse_errors: 0,
                deliveries: sent,
                dropped_deliveries: dropped,
                subscribes,
                unsubscribes,
                live_subscriptions: (subscribes - unsubscribes) as usize,
                auto_unsubscribes: self.swept,
                compactions: self.compactions,
                residual_builds: 0,
            };
            assert_eq!(stats, &want);
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Publish(&'static [Topic]),
        /// A topic and a mailbox capacity.
        Subscribe(Topic, usize),
        Unsubscribe(u64),
        /// The subscriber drops its receiver.
        HangUp(usize),
        /// The subscriber reads its mailbox empty.
        Read(usize),
        Compact,
        Stats,
    }
    use Op::*;

    /// The model shell.
    struct Model {
        sched: RefCell<Sched>,
        outbox: RefCell<Outbox<Vecbox>>,
        workers: RefCell<Vec<Worker>>,
        spec: RefCell<Spec>,
        /// `Stats` commands queued.
        barriers: Cell<usize>,
    }

    impl Port for Model {
        type Mailbox = Vecbox;
        type Query = Topic;
        type Reply<A> = Slot<A>;
        type Pending<A> = Slot<A>;

        fn workers(&self) -> usize {
            self.workers.borrow().len()
        }

        fn outbox<T>(&self, f: impl FnOnce(&mut Outbox<Vecbox>) -> T) -> Result<T> {
            let out = f(&mut self.outbox.borrow_mut());
            self.preempt(None);
            Ok(out)
        }

        fn push(&self, worker: usize, command: Command<Model>) -> Result<()> {
            let mut workers = self.workers.borrow_mut();
            let w = &mut workers[worker];
            if w.closed {
                return Err(ServerError::Closed);
            }
            w.awaited |= command.awaited();
            self.barriers
                .set(self.barriers.get() + usize::from(matches!(command, Command::Stats(_))));
            w.cmds.push_back(command);
            drop(workers);
            self.preempt(Some(worker));
            Ok(())
        }

        fn reply<A>(&self) -> (Slot<A>, Slot<A>) {
            let slot = Rc::new(RefCell::new(None));
            (Rc::clone(&slot), slot)
        }

        fn wait<A>(&self, pending: Slot<A>) -> Result<A> {
            loop {
                if let Some(answer) = pending.borrow_mut().take() {
                    return Ok(answer);
                }
                assert!(self.run_one(), "a handle waits on a worker that cannot run");
            }
        }
    }

    impl Model {
        fn new(workers: usize, sched: Sched) -> Model {
            Model {
                sched: RefCell::new(sched),
                outbox: RefCell::default(),
                workers: RefCell::new((0..workers).map(|_| Worker::new()).collect()),
                spec: RefCell::default(),
                barriers: Cell::new(0),
            }
        }

        /// After a handle action, the workers it touches take any number
        /// of steps: all of them after an outbox step or a mailbox change,
        /// only the one whose inbox it fed after a push or a publish. That
        /// covers every interleaving up to reordering steps that commute —
        /// a worker's steps with an action on another worker's inbox, and
        /// two workers' steps between two handle actions (the outbox
        /// releases in `doc_seq` order whichever report lands first).
        fn preempt(&self, only: Option<usize>) {
            for w in (0..self.workers()).filter(|&w| only.is_none_or(|o| o == w)) {
                while self.workers.borrow()[w].runnable() && self.sched.borrow_mut().choose(2) == 1
                {
                    self.step(w);
                }
            }
        }

        /// One step of the first worker that can run; `false` if none
        /// can. A waiting handle does nothing, so it waits out one
        /// window, and the awaited worker is the first with work left.
        fn run_one(&self) -> bool {
            let runnable = self.workers.borrow().iter().position(Worker::runnable);
            runnable.map(|w| self.step(w)).is_some()
        }

        /// Up to and including one action another thread can see: taking
        /// from the inbox, reporting, or answering a handle.
        fn step(&self, index: usize) {
            let mut workers = self.workers.borrow_mut();
            let w = &mut workers[index];
            w.held = match std::mem::replace(&mut w.held, Held::Idle) {
                Held::Idle
                    if !w.cmds.is_empty() && (w.awaited || !w.docs.is_empty() || w.closed) =>
                {
                    w.awaited = false;
                    let cmds = w.cmds.drain(..).collect();
                    w.apply(cmds)
                }
                Held::Idle => match w.docs.pop_front() {
                    Some(doc) => w.evaluate(doc, VecDeque::new()),
                    None => Held::Done,
                },
                Held::Commands(cmds) => w.apply(cmds),
                Held::Report(seq, doc, matches, then) => {
                    self.outbox.borrow_mut().report(seq, doc, &matches);
                    self.spec.borrow_mut().report(seq, &matches);
                    Held::resume(then)
                }
                Held::Done => unreachable!("a finished worker is not runnable"),
            };
        }

        /// Runs `script`, then `shutdown`; returns what each `stats` call
        /// and the close returned.
        fn run(&self, script: &[Op]) -> Vec<ServerStats> {
            let mut churn = Churn::default();
            let mut stats: Vec<_> = script
                .iter()
                .filter_map(|&op| self.op(&mut churn, op))
                .collect();
            // Close every inbox, let the workers drain, close the books.
            let mut workers = self.workers.borrow_mut();
            workers.iter_mut().for_each(|w| w.closed = true);
            drop(workers);
            while self.run_one() {}
            let slices: Vec<_> = self.workers.borrow().iter().map(Worker::stats).collect();
            stats.push(churn.close(&mut self.outbox.borrow_mut(), &slices));
            let mut spec = self.spec.borrow_mut();
            spec.sweep(None);
            spec.check(stats.last().unwrap());
            stats
        }

        fn op(&self, churn: &mut Churn, op: Op) -> Option<ServerStats> {
            let spec = &self.spec;
            match op {
                Publish(topics) => {
                    let seq = spec.borrow().published.len() as u64;
                    spec.borrow_mut().published.push(topics.to_vec());
                    let worker = route(seq, self.workers());
                    let doc: Document = topics.to_vec().into();
                    self.workers.borrow_mut()[worker].docs.push_back((seq, doc));
                    self.preempt(Some(worker));
                }
                Subscribe(topic, capacity) => {
                    let mailbox = Vecbox::default();
                    mailbox.0.borrow_mut().capacity = capacity;
                    let raw = {
                        let mut spec = spec.borrow_mut();
                        spec.sweep(None);
                        spec.subs.push(SubSpec {
                            topic,
                            live: true,
                            returned_at: None,
                            explicit: false,
                            swept: false,
                            expected: Vec::new(),
                            mailbox: mailbox.clone(),
                        });
                        spec.subs.len() - 1
                    };
                    let id = churn.subscribe(self, topic, mailbox).unwrap();
                    assert_eq!(id.as_u64(), raw as u64, "ids are dense");
                    let mut spec = spec.borrow_mut();
                    spec.subs[raw].returned_at = Some(spec.published.len() as u64);
                }
                Unsubscribe(raw) => {
                    let want = {
                        let mut spec = spec.borrow_mut();
                        spec.sweep(Some(raw as usize));
                        let want = spec.subs.get_mut(raw as usize).is_some_and(|sub| {
                            sub.live = false;
                            !std::mem::replace(&mut sub.explicit, true) && !sub.swept
                        });
                        spec.explicit += u64::from(want);
                        spec.tombstones += usize::from(want);
                        want
                    };
                    let id = SubscriptionId::from_raw(raw);
                    assert_eq!(churn.unsubscribe(self, id).unwrap(), want);
                }
                HangUp(raw) => {
                    let mut sub = RefMut::map(spec.borrow_mut(), |spec| &mut spec.subs[raw]);
                    sub.live = false;
                    sub.mailbox.0.borrow_mut().hung_up = true;
                    drop(sub);
                    self.preempt(None);
                }
                Read(raw) => {
                    spec.borrow().subs[raw].mailbox.0.borrow_mut().backlog = 0;
                    self.preempt(None);
                }
                Compact => {
                    let want = {
                        let mut spec = spec.borrow_mut();
                        spec.sweep(None);
                        let did = std::mem::take(&mut spec.tombstones) > 0;
                        spec.compactions += u64::from(did);
                        did
                    };
                    assert_eq!(churn.compact(self).unwrap(), want);
                    self.preempt(None);
                }
                Stats => {
                    let stats = churn.stats(self).unwrap();
                    let mut spec = spec.borrow_mut();
                    spec.sweep(None);
                    spec.check(&stats);
                    return Some(stats);
                }
            }
            None
        }
    }

    /// Runs `script` under every schedule, handing `check` each model
    /// and what its `stats` calls and close returned; returns how many
    /// schedules there were.
    fn every_interleaving(
        workers: usize,
        script: &[Op],
        check: impl Fn(&Model, &[ServerStats]),
    ) -> usize {
        let mut sched = Sched::default();
        let mut runs = 0;
        loop {
            let model = Model::new(workers, sched);
            let stats = model.run(script);
            check(&model, &stats);
            sched = model.sched.into_inner();
            runs += 1;
            if !sched.next() {
                return runs;
            }
        }
    }

    const A: &[Topic] = &[1];
    const B: &[Topic] = &[2];
    const AB: &[Topic] = &[1, 2];

    #[test]
    fn every_interleaving_of_small_scripts_meets_the_specification() {
        let scripts: &[(usize, &[Op])] = &[
            // A subscriber that lands before or after a queued document;
            // an unsubscribe with a report in flight.
            (
                2,
                &[
                    Publish(A),
                    Subscribe(1, 8),
                    Publish(A),
                    Unsubscribe(0),
                    Stats,
                ],
            ),
            (
                3,
                &[
                    Publish(A),
                    Publish(A),
                    Subscribe(1, 8),
                    Publish(A),
                    Unsubscribe(0),
                ],
            ),
            // Reports out of turn across three workers, two subscribers.
            (
                3,
                &[
                    Subscribe(1, 8),
                    Subscribe(2, 8),
                    Publish(AB),
                    Publish(B),
                    Publish(A),
                    Stats,
                ],
            ),
            // Five documents through the reorder buffer.
            (
                2,
                &[
                    Subscribe(1, 8),
                    Publish(A),
                    Publish(B),
                    Publish(AB),
                    Publish(A),
                    Publish(A),
                ],
            ),
            (
                3,
                &[
                    Subscribe(1, 8),
                    Publish(A),
                    Publish(B),
                    Publish(AB),
                    Publish(A),
                    Publish(A),
                ],
            ),
            // A receiver dropped mid-stream, found by a delivery, and
            // swept by churn, by the stats barrier or at the close.
            (
                2,
                &[
                    Subscribe(1, 8),
                    Publish(A),
                    HangUp(0),
                    Publish(A),
                    Subscribe(2, 8),
                    Publish(AB),
                ],
            ),
            (
                2,
                &[
                    Subscribe(1, 8),
                    Publish(A),
                    HangUp(0),
                    Publish(A),
                    Stats,
                    Unsubscribe(0),
                ],
            ),
            // A full mailbox drops, a read makes room; compaction.
            (
                1,
                &[
                    Subscribe(1, 1),
                    Publish(A),
                    Publish(A),
                    Read(0),
                    Publish(A),
                    Unsubscribe(0),
                    Compact,
                ],
            ),
            (
                2,
                &[
                    Subscribe(1, 8),
                    Publish(A),
                    Unsubscribe(0),
                    Compact,
                    Publish(A),
                ],
            ),
            // Four subscriptions on one worker.
            (
                1,
                &[
                    Subscribe(1, 8),
                    Subscribe(2, 8),
                    Publish(AB),
                    Subscribe(1, 2),
                    Unsubscribe(1),
                    Subscribe(2, 8),
                    Publish(B),
                    Publish(AB),
                ],
            ),
        ];
        for &(workers, script) in scripts {
            let runs = every_interleaving(workers, script, |_, _| {});
            assert!(runs > 1, "{script:?} on {workers} workers: {runs} schedule");
        }
    }

    /// A departure no churn call swept (the receiver went, a delivery
    /// found out, nothing came after) is counted at the close.
    #[test]
    fn shutdown_counts_the_departures_no_churn_call_swept() {
        let script = [Subscribe(1, 8), Subscribe(2, 8), HangUp(0), Publish(AB)];
        every_interleaving(2, &script, |_, stats| {
            let close = &stats[0];
            assert_eq!((close.unsubscribes, close.auto_unsubscribes), (1, 1));
            assert_eq!((close.live_subscriptions, close.deliveries), (1, 1));
        });
    }

    /// The barrier uncovers a departure, the sweep withdraws it, and the
    /// barrier goes round again so the banks' counts include it.
    #[test]
    fn a_stats_barrier_that_sweeps_goes_round_again() {
        let script = [
            Subscribe(1, 8),
            Subscribe(2, 8),
            HangUp(0),
            Publish(AB),
            Stats,
        ];
        every_interleaving(2, &script, |model, stats| {
            assert_eq!(model.barriers.get(), 2 * 2, "two rounds on two workers");
            assert_eq!(
                (stats[0].auto_unsubscribes, stats[0].live_subscriptions),
                (1, 1)
            );
        });
    }

    /// Longer seeded scripts — up to three workers, four subscriptions
    /// and twelve documents — under random schedules.
    #[test]
    fn random_scripts_under_random_schedules_meet_the_specification() {
        const TOPICS: [&[Topic]; 7] = [&[1], &[2], &[3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3]];
        let cases = std::env::var("FX_PROPTEST_CASES").map_or(64, |n| n.parse().unwrap());
        for seed in 1..=cases {
            let mut rng = Sched::seeded(seed);
            let workers = 1 + rng.random(3);
            let (mut subs, mut docs, mut script) = (0, 0, Vec::new());
            for _ in 0..24 {
                let op = match rng.random(8) {
                    0 | 1 if docs < 12 => Publish(TOPICS[rng.random(TOPICS.len())]),
                    2 if subs < 4 => Subscribe(1 + rng.random(3) as Topic, 1 + rng.random(3)),
                    3 => Unsubscribe(rng.random(subs + 1) as u64),
                    4 if subs > 0 => HangUp(rng.random(subs)),
                    5 if subs > 0 => Read(rng.random(subs)),
                    6 => Compact,
                    _ => Stats,
                };
                docs += usize::from(matches!(op, Publish(_)));
                subs += usize::from(matches!(op, Subscribe(..)));
                script.push(op);
            }
            Model::new(workers, rng).run(&script);
        }
    }
}
