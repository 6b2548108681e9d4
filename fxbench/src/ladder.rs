//! The layer ladder: per-layer rows measured from `fxbench`'s own files
//! by timing calls into each module's *public* functions over the
//! workload's own bytes, each with the same `Tfast` rule as the end-to-end
//! numbers. None is gated — they explain, the end-to-end metrics decide.
//!
//! A row whose layer is not on the workload's path reads 0 (the XML-only
//! rows on `records-json` / `soup-html`, the `server.*` rows on the
//! engine workloads).

use crate::harness::{fast, time_fast, Budget};
use crate::report::{metric, Metric};
use crate::workloads::{Front, Inputs, Kind, Product, Reference, Server};
use fx_core::{CompiledQuery, IndexedBank, Match, MultiFilter, StreamFilter};
use fx_engine::{Engine, IndexPolicy};
use fx_xml::{AttrBuf, EventBatch, EventIter, Sym, SymCache, SymEvent, Symbols};
use fx_xpath::{parse_query, Query};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shared state of one workload's rows.
pub struct Ladder<'a> {
    inputs: &'a Inputs,
    reference: &'a Reference,
    queries: Vec<Query>,
    /// The engine's symbol table (seeded with the query vocabulary).
    symbols: Arc<Symbols>,
    budget: Budget,
    bytes: f64,
    docs: f64,
    /// Interned events of one pass.
    events: f64,
    /// Per document, the batches `drive_batched` fills for it.
    batches: Vec<Vec<EventBatch>>,
    out: Vec<Metric>,
}

impl<'a> Ladder<'a> {
    /// Prepares the rows: pre-fills the corpus' batches against `symbols`.
    pub fn new(
        inputs: &'a Inputs,
        reference: &'a Reference,
        symbols: &Arc<Symbols>,
        budget: Budget,
    ) -> Ladder<'a> {
        // Compilation interns the query vocabulary, which the lookup-only
        // frontends below must find in the table.
        let queries = inputs.parsed_queries();
        for q in &queries {
            CompiledQuery::compile_with(q, Arc::clone(symbols)).expect("supported query");
        }
        let mut front = Front::lookup_only(inputs.kind, symbols);
        let batches: Vec<Vec<EventBatch>> = inputs
            .docs
            .iter()
            .map(|doc| {
                let mut filled = Vec::new();
                let source = front.source();
                source.reset();
                source
                    .drive_batched(&mut doc.as_bytes(), &mut |batch| filled.push(batch.clone()))
                    .expect("generated document parses");
                filled
            })
            .collect();
        let events = batches.iter().flatten().map(EventBatch::len).sum::<usize>() as f64;
        Ladder {
            inputs,
            reference,
            queries,
            symbols: Arc::clone(symbols),
            budget,
            bytes: inputs.bytes() as f64,
            docs: inputs.docs.len() as f64,
            events,
            batches,
            out: Vec::new(),
        }
    }

    fn time(&self, pass: impl FnMut()) -> f64 {
        let min_passes = if self.budget.smoke { 1 } else { 2 };
        time_fast(self.budget.row(), min_passes, pass)
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(metric(name, unit, value));
    }

    /// Runs every row.
    pub fn rows(mut self) -> Vec<Metric> {
        self.scan();
        let tokenize_ns = self.tokenize();
        self.owned();
        self.intern();
        self.batch(tokenize_ns);
        self.consumers();
        self.bank_churn();
        self.compile();
        self.per_doc_fixed();
        self.sharded();
        self.out
    }

    /// `fx_xml::scan::positions_xml`: the SWAR structural scan alone.
    fn scan(&mut self) {
        if !self.inputs.kind.is_xml() {
            self.push("scan.ns_per_byte", "ns/B", 0.0);
            self.push("scan.positions_per_kb", "count", 0.0);
            return;
        }
        let mut positions = Vec::new();
        let mut found = 0usize;
        let ns = self.time(|| {
            found = 0;
            for doc in &self.inputs.docs {
                positions.clear();
                fx_xml::scan::positions_xml(black_box(doc.as_bytes()), 0, &mut positions);
                found += black_box(positions.len());
            }
        });
        self.push("scan.ns_per_byte", "ns/B", ns / self.bytes);
        self.push(
            "scan.positions_per_kb",
            "count",
            found as f64 / (self.bytes / 1024.0),
        );
    }

    /// The workload's tokenizer (`StreamingParser` / `JsonParser` /
    /// `HtmlParser`), lookup-only, `feed_interned` + `finish_interned`
    /// into a sink that drops every event. Includes the scan.
    fn tokenize(&mut self) -> f64 {
        let mut front = Front::lookup_only(self.inputs.kind, &self.symbols);
        let ns = self.time(|| {
            for doc in &self.inputs.docs {
                front
                    .tokenize(doc, &mut |ev, span| {
                        black_box((&ev, span));
                    })
                    .expect("generated document parses");
            }
        });
        self.push("tokenize.ns_per_byte", "ns/B", ns / self.bytes);
        self.push("tokenize.ns_per_event", "ns", ns / self.events);
        self.push("tokenize.events_per_doc", "count", self.events / self.docs);
        ns
    }

    /// `EventIter` drained: the owned-`Event` surface a session falls
    /// back to when its bank does not take interned events.
    fn owned(&mut self) {
        if !self.inputs.kind.is_xml() {
            self.push("owned.ns_per_byte", "ns/B", 0.0);
            return;
        }
        let ns = self.time(|| {
            for doc in &self.inputs.docs {
                for event in EventIter::new(doc.as_bytes()) {
                    black_box(event.expect("generated document parses"));
                }
            }
        });
        self.push("owned.ns_per_byte", "ns/B", ns / self.bytes);
    }

    /// `SymCache::lookup` replay of the corpus' name sequence (element
    /// names at start tags, attribute names) against the engine's table.
    fn intern(&mut self) {
        let private = Arc::new(Symbols::new());
        let mut front = Front::interning(self.inputs.kind, &private);
        let mut sequence: Vec<Sym> = Vec::new();
        for doc in &self.inputs.docs {
            front
                .tokenize(doc, &mut |ev, _| {
                    if let SymEvent::StartElement { name, attributes } = ev {
                        sequence.extend(attributes.iter().map(|a| a.name));
                        sequence.push(name);
                    }
                })
                .expect("generated document parses");
        }
        let mut names = vec![String::new(); private.len()];
        for sym in &sequence {
            if names[sym.index()].is_empty() {
                names[sym.index()] = private.resolve(*sym);
            }
        }
        let mut cache = SymCache::new();
        let ns = self.time(|| {
            for sym in &sequence {
                black_box(cache.lookup(&self.symbols, &names[sym.index()]));
            }
        });
        self.push("intern.ns_per_name", "ns", ns / sequence.len() as f64);
        self.push(
            "intern.names_per_doc",
            "count",
            sequence.len() as f64 / self.docs,
        );
    }

    /// `drive_batched` into a dropping sink (minus the tokenize row =
    /// io chunk copy + batch fill), and `EventBatch::replay` into a
    /// no-op over the pre-filled batches.
    fn batch(&mut self, tokenize_ns: f64) {
        let mut front = Front::lookup_only(self.inputs.kind, &self.symbols);
        let drive_ns = self.time(|| {
            for doc in &self.inputs.docs {
                let source = front.source();
                source.reset();
                source
                    .drive_batched(&mut doc.as_bytes(), &mut |batch| {
                        black_box(batch.len());
                    })
                    .expect("generated document parses");
            }
        });
        let mut scratch = AttrBuf::new();
        let replay_ns = self.time(|| {
            for batch in self.batches.iter().flatten() {
                batch.replay(&mut scratch, |ev, span| {
                    black_box((&ev, span));
                });
            }
        });
        let filled = self.batches.iter().map(Vec::len).sum::<usize>() as f64;
        let payload = self
            .batches
            .iter()
            .flatten()
            .map(EventBatch::payload_bytes)
            .sum::<usize>() as f64;
        self.push(
            "batch.fill_ns_per_event",
            "ns",
            (drive_ns - tokenize_ns) / self.events,
        );
        self.push("batch.replay_ns_per_event", "ns", replay_ns / self.events);
        self.push("batch.batches_per_doc", "count", filled / self.docs);
        self.push("batch.payload_bytes_per_event", "B", payload / self.events);
    }

    fn compiled(&self) -> impl Iterator<Item = CompiledQuery> + '_ {
        self.queries.iter().map(|q| {
            CompiledQuery::compile_with(q, Arc::clone(&self.symbols)).expect("supported query")
        })
    }

    /// The three consumers over the pre-filled batches: one
    /// `StreamFilter` (the first query), the `MultiFilter` bank and the
    /// `IndexedBank` over all the queries.
    fn consumers(&mut self) {
        let mut filter = StreamFilter::from_compiled(self.compiled().next().expect("one query"));
        let mut scratch = AttrBuf::new();
        let filter_ns = self.time(|| {
            for batch in self.batches.iter().flatten() {
                filter.process_batch(batch, &mut scratch);
            }
            black_box(filter.result());
        });
        self.push("filter.ns_per_event", "ns", filter_ns / self.events);

        // The bank the engine would build: reporting on the selecting
        // workloads, short-circuiting filters elsewhere. Routing is the
        // reporting bank's time over the filtering bank's, per match; it
        // is on the path of the selecting workloads only.
        let mut drop_matches = |m: Match| {
            black_box(m);
        };
        let mut multi = MultiFilter::from_compiled(self.compiled());
        let multi_ns = self.time(|| {
            for batch in self.batches.iter().flatten() {
                multi.process_batch_to(batch, &mut drop_matches);
            }
        });
        if self.inputs.kind.selects() {
            let mut reporting =
                MultiFilter::from_compiled_reporting(self.compiled()).expect("reportable queries");
            let mut routed = 0u64;
            let reporting_ns = self.time(|| {
                routed = 0;
                for batch in self.batches.iter().flatten() {
                    reporting.process_batch_to(batch, &mut |m: Match| {
                        black_box(m);
                        routed += 1;
                    });
                }
            });
            self.push("multi.ns_per_event", "ns", reporting_ns / self.events);
            self.push(
                "route.ns_per_match",
                "ns",
                (reporting_ns - multi_ns) / (routed as f64).max(1.0),
            );
            self.push("route.matches_per_doc", "count", routed as f64 / self.docs);
        } else {
            self.push("multi.ns_per_event", "ns", multi_ns / self.events);
            self.push("route.ns_per_match", "ns", 0.0);
            self.push("route.matches_per_doc", "count", 0.0);
        }

        let symbols = Arc::clone(&self.symbols);
        let mut bank = if self.inputs.kind.selects() {
            IndexedBank::new_reporting_with_symbols(&self.queries, symbols)
        } else {
            IndexedBank::new_with_symbols(&self.queries, symbols)
        }
        .expect("supported bank");
        let bank_ns = self.time(|| {
            for batch in self.batches.iter().flatten() {
                bank.process_batch_to(batch, &mut drop_matches);
            }
        });
        // The bank's counters reset at every StartDocument, so one more
        // pass reads them document by document.
        let (mut activations, mut events, mut instances, mut records) =
            (0u64, 0u64, 0usize, 0usize);
        for doc in &self.batches {
            for batch in doc {
                bank.process_batch_to(batch, &mut drop_matches);
            }
            let stats = bank.space_stats();
            activations += stats.activations;
            events += stats.events;
            instances = instances.max(stats.peak_instances);
            records = records.max(stats.peak_records);
        }
        let stats = bank.space_stats();
        self.push("bank.ns_per_event", "ns", bank_ns / self.events);
        self.push(
            "bank.activations_per_kevent",
            "count",
            activations as f64 * 1000.0 / events as f64,
        );
        self.push("bank.peak_instances", "count", instances as f64);
        self.push("bank.peak_records", "count", records as f64);
        self.push("bank.groups", "count", stats.groups as f64);
        self.push("bank.residual_pool", "count", stats.residual_pool as f64);
    }

    /// Writes beside reads: `subscribe` + `unsubscribe` of a known-form
    /// query, `compact`, and a from-scratch `IndexedBank::new`.
    fn bank_churn(&mut self) {
        const PAIRS: usize = 64;
        let build_ns = self.time(|| {
            black_box(IndexedBank::new(&self.queries).expect("supported bank"));
        });
        let mut bank = IndexedBank::new(&self.queries).expect("supported bank");
        let probe = &self.queries[self.queries.len() / 2];
        let builds_before = bank.residual_builds();
        let pairs_ns = self.time(|| {
            for _ in 0..PAIRS {
                let id = bank.subscribe(probe).expect("known-form query");
                bank.unsubscribe(id);
            }
        });
        let builds_delta = bank.residual_builds() - builds_before;
        let mut compact_ns = Vec::new();
        let begin = Instant::now();
        while compact_ns.len() < 3 || (begin.elapsed() < self.budget.row() && !self.budget.smoke) {
            let id = bank.subscribe(probe).expect("known-form query");
            bank.unsubscribe(id);
            let t = Instant::now();
            bank.compact();
            compact_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.push(
            "bank.sub_unsub_pair_us",
            "us",
            pairs_ns / PAIRS as f64 / 1e3,
        );
        self.push("bank.compact_us", "us", fast(&compact_ns) / 1e3);
        self.push("bank.build_ms", "ms", build_ns / 1e6);
        self.push("bank.residual_builds_delta", "count", builds_delta as f64);
    }

    /// `fx_xpath::parse_query` and `CompiledQuery::compile_with` (into a
    /// fresh table per pass), per query.
    fn compile(&mut self) {
        let n = self.queries.len() as f64;
        let parse_ns = self.time(|| {
            for text in &self.inputs.queries {
                black_box(parse_query(text).expect("generated query text parses"));
            }
        });
        let compile_ns = self.time(|| {
            let table = Arc::new(Symbols::new());
            for q in &self.queries {
                black_box(
                    CompiledQuery::compile_with(q, Arc::clone(&table)).expect("supported query"),
                );
            }
        });
        self.push("compile.parse_us_per_query", "us", parse_ns / n / 1e3);
        self.push("compile.compile_us_per_query", "us", compile_ns / n / 1e3);
    }

    /// The product path on the smallest document of the format: what a
    /// document costs before its first byte.
    fn per_doc_fixed(&mut self) {
        const DOCS: usize = 128;
        let trivial = self.inputs.kind.trivial_doc();
        let ns = if self.inputs.kind == Kind::PubsubChurn {
            let (server, handle) = Server::single();
            let subs: Vec<_> = self
                .queries
                .iter()
                .map(|q| handle.subscribe(q.clone()).expect("reportable query"))
                .collect();
            let doc: Arc<[u8]> = Arc::from(trivial.as_bytes());
            let ns = self.time(|| {
                for _ in 0..DOCS {
                    handle.publish(Arc::clone(&doc)).expect("server is running");
                    black_box(handle.stats().expect("server is running"));
                }
            });
            drop(handle);
            server.shutdown();
            drop(subs);
            ns
        } else {
            let mut product = Product::build(self.inputs.kind, &self.inputs.queries);
            let mut drop_matches = |m: Match| {
                black_box(m);
            };
            self.time(|| {
                for _ in 0..DOCS {
                    black_box(
                        product
                            .run(trivial.as_bytes(), &mut drop_matches)
                            .expect("trivial document parses"),
                    );
                }
            })
        };
        self.push("session.per_doc_fixed_ns", "ns", ns / DOCS as f64);
    }

    /// `Engine::run_sharded(.., 1)` against the session loop, and
    /// `Engine::run_bank_sharded(.., 1)`: what the sharded runners cost
    /// before any second thread. Widths above 1 are not timed on a
    /// 2-core box.
    fn sharded(&mut self) {
        if !self.inputs.kind.is_xml() || self.inputs.kind == Kind::PubsubChurn {
            self.push("sharded.doc_t1_overhead_pct", "%", 0.0);
            self.push("sharded.bank_k1_ns_per_byte", "ns/B", 0.0);
            return;
        }
        let mut product = Product::build(self.inputs.kind, &self.inputs.queries);
        let expected = &self.reference.verdicts;
        let mut drop_matches = |m: Match| {
            black_box(m);
        };
        let loop_ns = self.time(|| {
            for doc in &self.inputs.docs {
                black_box(
                    product
                        .run(doc.as_bytes(), &mut drop_matches)
                        .expect("generated document parses"),
                );
            }
        });
        let doc_ns = self.time(|| {
            let verdicts = product
                .engine()
                .run_sharded(&self.inputs.docs, 1)
                .expect("generated documents parse");
            assert!(
                verdicts
                    .iter()
                    .map(|v| v.matched())
                    .eq(expected.iter().map(Vec::as_slice)),
                "run_sharded disagrees with the reference"
            );
        });
        let indexed = Engine::builder()
            .queries(self.queries.iter().cloned())
            .index(IndexPolicy::SharedPrefix)
            .build()
            .expect("supported bank");
        let bank_ns = self.time(|| {
            for (doc, expected) in self.inputs.docs.iter().zip(expected) {
                let out = indexed
                    .run_bank_sharded(doc, 1)
                    .expect("generated document parses");
                assert_eq!(
                    out.matched(),
                    expected.as_slice(),
                    "run_bank_sharded disagrees with the reference"
                );
            }
        });
        self.push(
            "sharded.doc_t1_overhead_pct",
            "%",
            (doc_ns / loop_ns - 1.0) * 100.0,
        );
        self.push("sharded.bank_k1_ns_per_byte", "ns/B", bank_ns / self.bytes);
    }
}
