//! A lazily-determinized DFA filter in the style of Green et al. (\[18\] in
//! the paper): subset construction on demand, with the transition table
//! memoized across the stream. This is the design whose transition tables
//! the paper's §1.2 calls out — "storage of large transition tables … the
//! exponential blowup in memory is largely due to the loss incurred by
//! simulating non-deterministic automata by deterministic ones."

use crate::linear::{subset_transition, LinearPath, StateSet};
use fx_xml::Event;
use fx_xpath::Query;
use std::collections::HashMap;

/// The lazy-DFA streaming filter.
#[derive(Debug, Clone)]
pub struct LazyDfaFilter {
    path: LinearPath,
    /// Interned DFA states (subset → id). State 0 is the initial subset.
    states: Vec<StateSet>,
    index: HashMap<StateSet, u32>,
    /// Memoized transitions `(state, name) → state`.
    table: HashMap<(u32, String), u32>,
    /// Run-time stack of DFA state ids.
    stack: Vec<u32>,
    matched: bool,
    result: Option<bool>,
    max_stack: usize,
}

impl LazyDfaFilter {
    /// Builds the filter for a linear query.
    pub fn new(q: &Query) -> Option<LazyDfaFilter> {
        let path = LinearPath::from_query(q)?;
        let initial = StateSet::singleton(0);
        Some(LazyDfaFilter {
            path,
            states: vec![initial],
            index: HashMap::from([(initial, 0)]),
            table: HashMap::new(),
            stack: Vec::new(),
            matched: false,
            result: None,
            max_stack: 0,
        })
    }

    fn intern(&mut self, set: StateSet) -> u32 {
        if let Some(&id) = self.index.get(&set) {
            return id;
        }
        let id = self.states.len() as u32;
        self.states.push(set);
        self.index.insert(set, id);
        id
    }

    fn step(&mut self, from: u32, name: &str) -> u32 {
        if let Some(&to) = self.table.get(&(from, name.to_string())) {
            return to;
        }
        let next = subset_transition(&self.path, self.states[from as usize], name);
        let to = self.intern(next);
        self.table.insert((from, name.to_string()), to);
        to
    }

    /// Number of DFA states materialized so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transition-table entries materialized so far.
    pub fn transition_count(&self) -> usize {
        self.table.len()
    }

    /// Eagerly materializes the full DFA over a finite element alphabet
    /// (breadth-first closure). Returns the number of states — the
    /// blow-up quantity of experiment E9.
    pub fn materialize(&mut self, alphabet: &[&str]) -> usize {
        let mut frontier = vec![0u32];
        while let Some(s) = frontier.pop() {
            for &name in alphabet {
                let before = self.states.len();
                let to = self.step(s, name);
                if self.states.len() > before {
                    frontier.push(to);
                }
            }
        }
        self.states.len()
    }

    /// Feeds one event. A `StartDocument` resets the run-time stack but
    /// deliberately keeps the memoized transition table (see below).
    pub fn process(&mut self, event: &Event) {
        match event {
            Event::StartDocument => {
                self.stack.clear();
                self.stack.push(0);
                self.matched = false;
                self.result = None;
                // NOTE: the memoized table deliberately survives across
                // documents — that is the whole point of lazy DFAs (and of
                // the paper's critique: the table is persistent state).
            }
            Event::EndDocument => self.result = Some(self.matched),
            Event::StartElement { name, .. } => {
                let top = *self
                    .stack
                    .last()
                    .expect("startDocument pushed the initial state");
                let to = self.step(top, name);
                if self.states[to as usize].contains(self.path.accepting()) {
                    self.matched = true;
                }
                self.stack.push(to);
                self.max_stack = self.max_stack.max(self.stack.len());
            }
            Event::EndElement { .. } => {
                self.stack.pop();
            }
            Event::Text { .. } => {}
        }
    }

    /// The verdict, available after `EndDocument`.
    pub fn verdict(&self) -> Option<bool> {
        self.result
    }

    /// Peak logical memory, in bits (the quantity the paper bounds).
    pub fn peak_memory_bits(&self) -> u64 {
        // The run-time stack stores DFA state ids; the dominant cost is
        // the materialized automaton: each state holds its subset (m
        // bits), each transition entry a (state, name, state) triple.
        let m = self.path.state_count() as u64;
        let id_bits = fx_core::bits_for(self.states.len()) as u64;
        let name_bits = 64; // hashed name key
        let states = self.states.len() as u64 * m;
        let table = self.table.len() as u64 * (2 * id_bits + name_bits);
        let stack = self.max_stack as u64 * id_bits;
        states + table + stack + 1
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        "lazy-dfa"
    }

    /// Feeds a whole stream and returns the verdict.
    pub fn run_stream(&mut self, events: &[Event]) -> Option<bool> {
        for e in events {
            self.process(e);
        }
        self.verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::NfaFilter;
    use fx_xpath::parse_query;

    #[test]
    fn agrees_with_nfa() {
        let queries = ["/a/b", "//a//b", "/a//b/c", "//x", "/a/*/b", "//a/*/*/b"];
        let docs = [
            "<a><b><c/></b></a>",
            "<a><x><b/><b><c/></b></x></a>",
            "<x><a><b><q><c/></q></b></a></x>",
            "<a><a><x><y><b/></y></x></a></a>",
        ];
        for qs in queries {
            let q = parse_query(qs).unwrap();
            for xml in docs {
                let events = fx_xml::parse(xml).unwrap();
                let mut nfa = NfaFilter::new(&q).unwrap();
                let mut dfa = LazyDfaFilter::new(&q).unwrap();
                assert_eq!(
                    dfa.run_stream(&events),
                    nfa.run_stream(&events),
                    "{qs} on {xml}"
                );
            }
        }
    }

    #[test]
    fn lazy_table_grows_only_with_observed_names() {
        let q = parse_query("//a/b").unwrap();
        let mut f = LazyDfaFilter::new(&q).unwrap();
        f.run_stream(&fx_xml::parse("<a><b/></a>").unwrap());
        let after_small = f.transition_count();
        assert!(after_small <= 4, "{after_small}");
        // New names create new entries; repeats do not.
        f.run_stream(&fx_xml::parse("<a><b/></a>").unwrap());
        assert_eq!(f.transition_count(), after_small);
    }

    #[test]
    fn table_persists_across_documents() {
        let q = parse_query("//a//b").unwrap();
        let mut f = LazyDfaFilter::new(&q).unwrap();
        assert_eq!(
            f.run_stream(&fx_xml::parse("<a><b/></a>").unwrap()),
            Some(true)
        );
        let states = f.state_count();
        assert_eq!(f.run_stream(&fx_xml::parse("<x/>").unwrap()), Some(false));
        assert!(f.state_count() >= states);
    }

    #[test]
    fn lazy_dfa_table_stays_warm_across_documents() {
        let q = parse_query("//a//b").unwrap();
        let mut f = LazyDfaFilter::new(&q).unwrap();
        let events = fx_xml::parse("<a><b/></a>").unwrap();
        assert_eq!(f.run_stream(&events), Some(true));
        let first = f.peak_memory_bits();
        assert_eq!(f.run_stream(&events), Some(true));
        // Memoized table persists, so peak memory does not restart at 0.
        assert!(f.peak_memory_bits() >= first);
    }

    #[test]
    fn wildcard_gap_query_blows_up_exponentially() {
        // //a/*^k/b: the DFA must remember which of the last k+1 levels
        // held an `a`, so the subset space is ~2^k. The frontier filter
        // needs O(k·r) rows on the same input.
        let mut prev = 0usize;
        for k in [2usize, 4, 6, 8] {
            let stars = "/*".repeat(k);
            let q = parse_query(&format!("//a{stars}/b")).unwrap();
            let mut f = LazyDfaFilter::new(&q).unwrap();
            let states = f.materialize(&["a", "b"]);
            assert!(states > prev, "k={k}: {states} ≤ {prev}");
            assert!(states >= 1 << (k / 2), "k={k}: only {states} states");
            prev = states;
        }
    }

    #[test]
    fn distinct_name_chain_stays_small() {
        // //s0//s1//s2: subsets reachable are prefix intervals → linear.
        let q = parse_query("//s0//s1//s2").unwrap();
        let mut f = LazyDfaFilter::new(&q).unwrap();
        let states = f.materialize(&["s0", "s1", "s2", "z"]);
        assert!(states <= 8, "{states}");
    }

    #[test]
    fn memory_dominated_by_table() {
        let q = parse_query("//a/*/*/*/*/b").unwrap();
        let mut f = LazyDfaFilter::new(&q).unwrap();
        f.materialize(&["a", "b", "c"]);
        let dfa_bits = f.peak_memory_bits();
        let mut frontier = fx_core::StreamFilter::new(&q).unwrap();
        frontier.run_stream(&fx_xml::parse("<a><x><y><z><w><b/></w></z></y></x></a>").unwrap());
        assert!(dfa_bits > 10 * frontier.peak_memory_bits());
    }
}
