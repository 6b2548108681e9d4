//! The [`Evaluator`] trait: one interface over every boolean streaming
//! filter in the workspace.
//!
//! This trait is the former `fx_automata::BooleanStreamFilter`, moved to
//! the engine layer where it belongs: the automata crate provides
//! *baselines*, not the abstraction, and the paper's own algorithm
//! ([`fx_core::StreamFilter`]) was never an automaton. The engine's
//! [`crate::Session`] drives `Box<dyn Evaluator>` instances, and the
//! benchmark harness compares implementations through the same lens.

use fx_xml::{AttrBuf, Event, EventBatch, Symbols};

/// A streaming algorithm computing `BOOLEVAL_Q` over SAX events.
///
/// `Send` so a [`crate::Session`] can live on a service's worker thread
/// (`fx-server`); every filter in the workspace is plain owned data.
pub trait Evaluator: Send {
    /// Feeds one event. A `StartDocument` resets per-document state.
    fn process(&mut self, event: &Event);
    /// The verdict, available after `EndDocument`.
    fn verdict(&self) -> Option<bool>;
    /// Peak logical memory, in bits (the quantity the paper bounds).
    fn peak_memory_bits(&self) -> u64;
    /// A short label for reports.
    fn label(&self) -> &'static str;

    /// Feeds a run of interned events — what a [`crate::Session`]'s
    /// drive loop hands every evaluator. `names` is the table that
    /// issued the batch's syms, and must be the table the evaluator's
    /// query was compiled against (the engine's): the default replays
    /// the batch through [`fx_xml::SymEvent::to_owned`] into
    /// [`Evaluator::process`], which is how the automata and buffering
    /// baselines consume it, while evaluators that dispatch on syms
    /// override it and compare the batch's syms with their node tests
    /// directly. `scratch` is the caller's reusable attribute buffer
    /// for the replay.
    fn process_batch(&mut self, batch: &EventBatch, names: &Symbols, scratch: &mut AttrBuf) {
        batch.replay(scratch, |ev, _| self.process(&ev.to_owned(names)));
    }

    /// Feeds a whole stream and returns the verdict.
    fn run_stream(&mut self, events: &[Event]) -> Option<bool> {
        for e in events {
            self.process(e);
        }
        self.verdict()
    }
}

impl Evaluator for fx_core::StreamFilter {
    fn process(&mut self, event: &Event) {
        fx_core::StreamFilter::process(self, event);
    }
    /// Native: the batch's syms are the compiled node tests' own.
    fn process_batch(&mut self, batch: &EventBatch, _names: &Symbols, scratch: &mut AttrBuf) {
        fx_core::StreamFilter::process_batch(self, batch, scratch);
    }
    fn verdict(&self) -> Option<bool> {
        self.result()
    }
    fn peak_memory_bits(&self) -> u64 {
        self.stats().max_bits
    }
    fn label(&self) -> &'static str {
        "frontier-filter"
    }
}

impl Evaluator for fx_automata::NfaFilter {
    fn process(&mut self, event: &Event) {
        fx_automata::NfaFilter::process(self, event);
    }
    fn verdict(&self) -> Option<bool> {
        fx_automata::NfaFilter::verdict(self)
    }
    fn peak_memory_bits(&self) -> u64 {
        fx_automata::NfaFilter::peak_memory_bits(self)
    }
    fn label(&self) -> &'static str {
        fx_automata::NfaFilter::label(self)
    }
}

impl Evaluator for fx_automata::LazyDfaFilter {
    fn process(&mut self, event: &Event) {
        fx_automata::LazyDfaFilter::process(self, event);
    }
    fn verdict(&self) -> Option<bool> {
        fx_automata::LazyDfaFilter::verdict(self)
    }
    fn peak_memory_bits(&self) -> u64 {
        fx_automata::LazyDfaFilter::peak_memory_bits(self)
    }
    fn label(&self) -> &'static str {
        fx_automata::LazyDfaFilter::label(self)
    }
}

impl Evaluator for fx_automata::BufferingFilter {
    fn process(&mut self, event: &Event) {
        fx_automata::BufferingFilter::process(self, event);
    }
    fn verdict(&self) -> Option<bool> {
        fx_automata::BufferingFilter::verdict(self)
    }
    fn peak_memory_bits(&self) -> u64 {
        fx_automata::BufferingFilter::peak_memory_bits(self)
    }
    fn label(&self) -> &'static str {
        fx_automata::BufferingFilter::label(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    #[test]
    fn all_backends_implement_the_trait() {
        let q = parse_query("/a/b").unwrap();
        let events = fx_xml::parse("<a><b/></a>").unwrap();
        let mut evals: Vec<Box<dyn Evaluator>> = vec![
            Box::new(fx_core::StreamFilter::new(&q).unwrap()),
            Box::new(fx_automata::NfaFilter::new(&q).unwrap()),
            Box::new(fx_automata::LazyDfaFilter::new(&q).unwrap()),
            Box::new(fx_automata::BufferingFilter::new(&q)),
        ];
        let mut labels = Vec::new();
        for e in &mut evals {
            assert_eq!(e.run_stream(&events), Some(true), "{}", e.label());
            assert!(e.peak_memory_bits() > 0, "{}", e.label());
            labels.push(e.label());
        }
        assert_eq!(labels, ["frontier-filter", "nfa", "lazy-dfa", "buffer-all"]);
    }
}
