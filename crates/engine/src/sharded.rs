//! Multi-core scale-out: document sharding.
//!
//! The paper bounds the memory of *one* streaming evaluation — one
//! sequential pass over one stream — and this module uses N cores
//! without changing that: events never leave the thread that tokenized
//! them, and the unit handed between threads is a whole document.
//! [`Engine::run_sharded`] / [`Engine::select_sharded`] fan many
//! independent documents out across worker threads, each owning a
//! session of its own — embarrassingly parallel, results merged back in
//! input (`doc_seq`) order.
//!
//! Every worker parses lookup-only, which resolves names against the
//! engine table's one shared frozen view
//! ([`fx_xml::Symbols::snapshot`]): worker threads never touch the
//! table's lock and no thread copies the table. Equivalence to the
//! single-threaded engine — verdicts and match streams — is proven by
//! `tests/sharded_differential.rs`.

use crate::builder::Engine;
use crate::error::EngineError;
use crate::session::{Outcome, Session, Verdicts};
use std::sync::atomic::{AtomicUsize, Ordering};

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

    // Pinned by `fxbench`'s `sharded.bank_k1_ns_per_byte` ladder row (no
    // product PR may edit `fxbench/`); ROADMAP's "Re-base the instrument"
    // item (a) drops the row and this forward with it.
    #[doc(hidden)]
    pub fn run_bank_sharded<D: AsRef<[u8]>>(
        &self,
        doc: D,
        _shards: usize,
    ) -> Result<Verdicts, EngineError> {
        self.session().run_reader(doc.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use crate::IndexPolicy;

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
}
