//! Multi-core scale-out: document sharding and bank sharding.
//!
//! The paper bounds the memory of *one* streaming evaluation; this
//! module is about using N cores without changing its semantics. Two
//! orthogonal axes, matching the two ways a dissemination workload
//! gets big:
//!
//! - **Document sharding** ([`Engine::run_sharded`] /
//!   [`Engine::select_sharded`]): many independent documents fan out
//!   across worker threads, each owning a session of its own. The
//!   many-small-docs path — embarrassingly parallel, results merged
//!   back in input (`doc_seq`) order.
//! - **Bank sharding** ([`Engine::run_bank_sharded`]): one huge
//!   document streams once through a lookup-only parser, its
//!   interned events broadcast over a bounded SPMC [`BatchRing`] to K
//!   threads each evaluating a [`fx_core::IndexedBank::partition`]
//!   shard of the query groups. The huge-bank × huge-document path —
//!   the stream is read once, the per-event bank work splits K ways.
//!
//! Both paths parse lookup-only, which resolves names against the
//! engine table's one shared frozen view
//! ([`fx_xml::Symbols::snapshot`]): worker threads never touch the
//! table's lock and no thread copies the table. Equivalence to the
//! single-threaded engine — verdicts, match streams, and merged space
//! stats — is proven by `tests/sharded_differential.rs`.

use crate::builder::Engine;
use crate::error::EngineError;
use crate::session::{Outcome, Session, Verdicts};
use fx_core::{IndexSpaceStats, Match};
use fx_xml::{EventBatch, StreamingParser, SymEvent, BATCH_BYTES, BATCH_EVENTS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// A bounded single-producer / multi-consumer **broadcast** ring of
/// [`EventBatch`]es: every consumer sees every batch, in publish
/// order. This is the spine of bank sharding — one parse, K bank
/// shards each replaying the identical interned event stream.
///
/// The ring owns `capacity` batch slots. [`BatchRing::publish`] swaps
/// the producer's filled batch into the next slot and hands back the
/// slot's previous batch (already seen by every consumer), cleared
/// with its arenas intact — so in steady state the producer cycles
/// `capacity + 1` batches and the hot path performs no allocation
/// (proven by `tests/alloc_steady_state.rs`). Publishing blocks while
/// the slowest consumer is `capacity` batches behind (backpressure);
/// consuming blocks while a consumer has seen everything published.
pub struct BatchRing {
    slots: Vec<RwLock<EventBatch>>,
    state: Mutex<RingState>,
    /// Consumers wait here for the head to advance (or the ring to
    /// close).
    data: Condvar,
    /// The producer waits here for the slowest tail to advance.
    space: Condvar,
}

struct RingState {
    /// Batches published so far; slot `head % capacity` is written
    /// next.
    head: u64,
    /// Per-consumer count of batches fully consumed.
    tails: Vec<u64>,
    closed: bool,
}

impl BatchRing {
    /// A ring of `capacity` slots (clamped to at least 2) broadcast to
    /// `consumers` consumers.
    pub fn new(capacity: usize, consumers: usize) -> BatchRing {
        let capacity = capacity.max(2);
        BatchRing {
            slots: (0..capacity)
                .map(|_| RwLock::new(EventBatch::new()))
                .collect(),
            state: Mutex::new(RingState {
                head: 0,
                tails: vec![0; consumers],
                closed: false,
            }),
            data: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Number of consumers the ring broadcasts to.
    pub fn consumers(&self) -> usize {
        self.state.lock().expect("ring state lock").tails.len()
    }

    /// Publishes `batch` to every consumer, blocking while the ring is
    /// full. On return, `batch` holds a cleared, already-broadcast
    /// batch (arenas retained) ready to be refilled — the producer
    /// never allocates in steady state.
    pub fn publish(&self, batch: &mut EventBatch) {
        let cap = self.slots.len() as u64;
        let idx = {
            let mut st = self.state.lock().expect("ring state lock");
            while st.head - st.tails.iter().copied().min().unwrap_or(st.head) >= cap {
                st = self.space.wait(st).expect("ring state lock");
            }
            (st.head % cap) as usize
        };
        {
            // Uncontended by construction: the wait above guarantees
            // every consumer has advanced past this slot's previous
            // lap, and tails advance only after the read guard drops.
            let mut slot = self.slots[idx].write().expect("ring slot lock");
            std::mem::swap(&mut *slot, batch);
        }
        self.state.lock().expect("ring state lock").head += 1;
        self.data.notify_all();
        batch.clear();
    }

    /// Runs consumer `i`'s drain loop: `f` is called on every batch in
    /// publish order, returning once the ring is closed *and* this
    /// consumer has seen everything published.
    pub fn consume<F: FnMut(&EventBatch)>(&self, i: usize, mut f: F) {
        let cap = self.slots.len() as u64;
        loop {
            let idx = {
                let mut st = self.state.lock().expect("ring state lock");
                while st.tails[i] == st.head && !st.closed {
                    st = self.data.wait(st).expect("ring state lock");
                }
                if st.tails[i] == st.head {
                    return; // closed and drained
                }
                (st.tails[i] % cap) as usize
            };
            {
                let slot = self.slots[idx].read().expect("ring slot lock");
                f(&slot);
            }
            self.state.lock().expect("ring state lock").tails[i] += 1;
            self.space.notify_one();
        }
    }

    /// Marks the stream complete: consumers drain what is published
    /// and return.
    pub fn close(&self) {
        self.state.lock().expect("ring state lock").closed = true;
        self.data.notify_all();
    }
}

impl std::fmt::Debug for BatchRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("ring state lock");
        f.debug_struct("BatchRing")
            .field("capacity", &self.slots.len())
            .field("head", &st.head)
            .field("tails", &st.tails)
            .field("closed", &st.closed)
            .finish()
    }
}

/// What one bank-sharded run of a document produced: merged per-query
/// verdicts, per-query match lists (selection engines; empty on
/// filtering engines), and the shards' space stats combined through
/// [`IndexSpaceStats::merge_sharded`].
#[derive(Debug, Clone)]
pub struct BankShardedOutcome {
    matched: Vec<bool>,
    matches: Vec<Vec<Match>>,
    stats: IndexSpaceStats,
    shards: usize,
}

impl BankShardedOutcome {
    /// Per-query verdicts, in registration order — each taken from the
    /// shard that owns the query's group, so the vector is identical
    /// to a single-threaded run's [`Verdicts::matched`].
    pub fn matched(&self) -> &[bool] {
        &self.matched
    }

    /// Whether any query matched.
    pub fn any(&self) -> bool {
        self.matched.iter().any(|&m| m)
    }

    /// The matches query `query` confirmed (selection engines), in the
    /// owning shard's confirmation order.
    pub fn matches(&self, query: usize) -> &[Match] {
        &self.matches[query]
    }

    /// Total confirmed matches across the bank.
    pub fn total_matches(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }

    /// The selected element ordinals of query `query`, sorted into
    /// document order.
    pub fn ordinals(&self, query: usize) -> Vec<u64> {
        let mut o: Vec<u64> = self.matches[query].iter().map(|m| m.ordinal).collect();
        o.sort_unstable();
        o
    }

    /// The merged space stats (see [`IndexSpaceStats::merge_sharded`]
    /// for which fields are exact and which are bounds).
    pub fn stats(&self) -> &IndexSpaceStats {
        &self.stats
    }

    /// Number of bank shards the document ran through.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Engine {
    /// Evaluates many independent documents across `threads` worker
    /// threads — the many-small-docs dissemination path. Each worker
    /// owns a full session (its own run over the engine's one shared
    /// bank index, its own warm parser over the table's shared view, so
    /// name resolution is lock-free) and
    /// claims work from a shared counter by **claim-halving**: each
    /// claim takes half of the remaining queue divided by the worker
    /// count (at least one document), so early claims amortize the
    /// atomic while the tail degrades to single-document grabs — a
    /// worker stuck on one huge document strands at most its current
    /// (geometrically shrinking) chunk, and the rest of the queue is
    /// stolen by idle workers. Results come back in **input order**
    /// (`docs[i]` → `result[i]`, the stable `doc_seq` ordering), however
    /// the workers interleave.
    ///
    /// Verdicts are per-document identical to running each document
    /// through [`Session::run_reader`] on one thread. On error the
    /// lowest-indexed failing document's error is returned. `threads`
    /// is clamped to `1..=docs.len()`.
    pub fn run_sharded<D>(&self, docs: &[D], threads: usize) -> Result<Vec<Verdicts>, EngineError>
    where
        D: AsRef<[u8]> + Sync,
    {
        self.sharded_generic(docs, threads, |session, doc| session.run_reader(doc))
    }

    /// [`Engine::run_sharded`] for selection engines: each document's
    /// full [`Outcome`] (verdicts plus per-query match lists), in input
    /// order.
    pub fn select_sharded<D>(&self, docs: &[D], threads: usize) -> Result<Vec<Outcome>, EngineError>
    where
        D: AsRef<[u8]> + Sync,
    {
        self.sharded_generic(docs, threads, |session, doc| {
            session.run_reader_outcome(doc)
        })
    }

    fn sharded_generic<D, T, F>(
        &self,
        docs: &[D],
        threads: usize,
        run: F,
    ) -> Result<Vec<T>, EngineError>
    where
        D: AsRef<[u8]> + Sync,
        T: Send,
        F: Fn(&mut Session, &[u8]) -> Result<T, EngineError> + Sync,
    {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let threads = threads.clamp(1, docs.len());
        let next = AtomicUsize::new(0);
        let mut out: Vec<Option<Result<T, EngineError>>> = (0..docs.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let run = &run;
                    s.spawn(move || {
                        let mut session = self.session();
                        let mut produced = Vec::new();
                        loop {
                            // Claim-halving: take `remaining / (2 ·
                            // threads)` documents (at least one) in one
                            // CAS. Chunks shrink geometrically toward
                            // single-document claims, so skewed document
                            // sizes rebalance at the tail instead of
                            // stranding a fixed share behind one slow
                            // worker.
                            let start = next.load(Ordering::Relaxed);
                            if start >= docs.len() {
                                break;
                            }
                            let take = ((docs.len() - start) / (2 * threads)).max(1);
                            if next
                                .compare_exchange_weak(
                                    start,
                                    start + take,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_err()
                            {
                                continue;
                            }
                            for (i, doc) in docs.iter().enumerate().skip(start).take(take) {
                                produced.push((i, run(&mut session, doc.as_ref())));
                            }
                        }
                        produced
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("document-shard worker panicked") {
                    out[i] = Some(r);
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("every document is claimed exactly once"))
            .collect()
    }

    /// Evaluates **one** document against the bank split across
    /// `shards` threads — the huge-bank × huge-document path. Requires
    /// [`crate::IndexPolicy::SharedPrefix`]
    /// ([`EngineError::ShardingRequiresIndex`] otherwise).
    ///
    /// The calling thread parses once with a lookup-only parser
    /// and broadcasts interned [`EventBatch`]es over a bounded
    /// [`BatchRing`]; each consumer thread replays the identical event
    /// stream into its [`fx_core::IndexedBank::partition`] shard.
    /// Verdicts and matches per query come from the shard owning the
    /// query's group (each group is owned by exactly one shard, so
    /// nothing is lost or duplicated); per-shard space stats merge
    /// through [`IndexSpaceStats::merge_sharded`] — exact for every
    /// field except `peak_instances`, which is an upper bound.
    pub fn run_bank_sharded<D: AsRef<[u8]>>(
        &self,
        doc: D,
        shards: usize,
    ) -> Result<BankShardedOutcome, EngineError> {
        let proto = self
            .indexed_proto()
            .ok_or(EngineError::ShardingRequiresIndex)?;
        let shards = shards.max(1);
        let banks = proto.partition(shards);
        let slots = proto.len();
        let ring = BatchRing::new(8, shards);
        let bytes = doc.as_ref();

        type ShardOut = (Vec<Option<bool>>, Vec<bool>, Vec<Match>, IndexSpaceStats);
        let mut shard_outputs: Vec<Option<ShardOut>> = (0..shards).map(|_| None).collect();
        let mut parse_result: Result<(), EngineError> = Ok(());
        std::thread::scope(|s| {
            let handles: Vec<_> = banks
                .into_iter()
                .enumerate()
                .map(|(ci, mut bank)| {
                    let ring = &ring;
                    s.spawn(move || {
                        let mut matches: Vec<Match> = Vec::new();
                        ring.consume(ci, |batch| {
                            bank.process_batch_to(batch, &mut |m: Match| matches.push(m));
                        });
                        let owns: Vec<bool> = (0..bank.len()).map(|q| bank.owns_slot(q)).collect();
                        (bank.results(), owns, matches, bank.space_stats())
                    })
                })
                .collect();

            // The producer runs on the calling thread: one parse, K
            // replays. The whole document is in hand, so it is one feed
            // (parsed in place) plus finish, filling the batch inline (same
            // `BATCH_EVENTS`/`BATCH_BYTES` cut as `drive_batched`)
            // rather than through the parser's own batch, because the
            // ring recycles batches by swapping owned buffers —
            // `publish` needs `&mut EventBatch`, not the borrow
            // `drive_batched` hands out.
            let mut parser =
                StreamingParser::with_symbols(Arc::clone(self.symbols())).lookup_only();
            let mut batch = EventBatch::new();
            let mut fill = |ev: SymEvent<'_>, span| {
                batch.push(&ev, span);
                if batch.len() >= BATCH_EVENTS || batch.payload_bytes() >= BATCH_BYTES {
                    ring.publish(&mut batch);
                }
            };
            let drive = parser
                .feed_interned_bytes(bytes, &mut fill)
                .and_then(|()| parser.finish_interned(&mut fill));
            if !batch.is_empty() {
                ring.publish(&mut batch);
            }
            ring.close();
            parse_result = drive.map_err(EngineError::from);
            for (i, h) in handles.into_iter().enumerate() {
                shard_outputs[i] = Some(h.join().expect("bank-shard worker panicked"));
            }
        });
        parse_result?;

        let mut matched = vec![false; slots];
        let mut per_query: Vec<Vec<Match>> = (0..slots).map(|_| Vec::new()).collect();
        let mut stats = Vec::with_capacity(shards);
        for out in shard_outputs {
            let (results, owns, matches, shard_stats) = out.expect("every shard joined");
            for slot in 0..slots {
                if owns[slot] {
                    matched[slot] = results[slot].ok_or(EngineError::IncompleteDocument)?;
                }
            }
            for m in matches {
                per_query[m.query].push(m);
            }
            stats.push(shard_stats);
        }
        Ok(BankShardedOutcome {
            matched,
            matches: per_query,
            stats: IndexSpaceStats::merge_sharded(&stats),
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexPolicy;
    use fx_xml::{AttrBuf, Span, Symbols};

    /// Every consumer must see every batch, in publish order, with
    /// backpressure never deadlocking a slow consumer.
    #[test]
    fn ring_broadcasts_in_order_to_every_consumer() {
        let ring = Arc::new(BatchRing::new(2, 3));
        let symbols = Symbols::new();
        let syms: Vec<_> = (0..40).map(|i| symbols.intern(&format!("n{i}"))).collect();
        let consumers: Vec<_> = (0..3)
            .map(|i| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut scratch = AttrBuf::new();
                    let mut seen = Vec::new();
                    ring.consume(i, |batch| {
                        batch.replay(&mut scratch, |ev, _| {
                            if let SymEvent::StartElement { name, .. } = ev {
                                seen.push(name);
                            }
                        });
                        // Slow one consumer down so tails diverge.
                        if i == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    });
                    seen
                })
            })
            .collect();
        let mut batch = EventBatch::new();
        for (k, &sym) in syms.iter().enumerate() {
            batch.push(
                &SymEvent::StartElement {
                    name: sym,
                    attributes: &[],
                },
                Span::EMPTY,
            );
            if k % 7 == 6 {
                ring.publish(&mut batch);
            }
        }
        if !batch.is_empty() {
            ring.publish(&mut batch);
        }
        ring.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), syms);
        }
    }

    #[test]
    fn document_sharding_matches_sequential_runs() {
        let engine = crate::Engine::builder()
            .query_str("/doc[title]")
            .query_str("//item")
            .index(IndexPolicy::SharedPrefix)
            .build()
            .unwrap();
        let docs: Vec<String> = (0..17)
            .map(|i| match i % 3 {
                0 => "<doc><title>t</title></doc>".to_string(),
                1 => "<doc><item/><item/></doc>".to_string(),
                _ => "<other/>".to_string(),
            })
            .collect();
        let mut session = engine.session();
        let sequential: Vec<Vec<bool>> = docs
            .iter()
            .map(|d| session.run_reader(d.as_bytes()).unwrap().matched().to_vec())
            .collect();
        for threads in [1, 2, 4] {
            let sharded = engine.run_sharded(&docs, threads).unwrap();
            let got: Vec<Vec<bool>> = sharded.iter().map(|v| v.matched().to_vec()).collect();
            assert_eq!(got, sequential, "threads={threads}");
        }
    }

    #[test]
    fn bank_sharding_matches_single_threaded_selection() {
        let engine = crate::Engine::builder()
            .query_str("/site/a/item")
            .query_str("/site/b/item")
            .query_str("//note")
            .select()
            .index(IndexPolicy::SharedPrefix)
            .build()
            .unwrap();
        let xml = "<site><a><item/><note/><item/></a><b><item/></b><note/></site>";
        let reference = engine.select_str(xml).unwrap();
        for shards in [1, 2, 3, 8] {
            let out = engine.run_bank_sharded(xml.as_bytes(), shards).unwrap();
            assert_eq!(out.matched(), reference.verdicts().matched(), "{shards}");
            for q in 0..3 {
                assert_eq!(out.ordinals(q), reference.ordinals(q), "{shards}/{q}");
            }
        }
    }

    #[test]
    fn bank_sharding_requires_the_index() {
        let engine = crate::Engine::builder().query_str("/a").build().unwrap();
        assert!(matches!(
            engine.run_bank_sharded("<a/>".as_bytes(), 2),
            Err(EngineError::ShardingRequiresIndex)
        ));
    }
}
