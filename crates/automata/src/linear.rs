//! Linear path queries as position automata, and an NFA-based streaming
//! filter in the style of XFilter/YFilter (\[1\], \[14\] in the paper): the
//! automaton's active state set is maintained per open element on a
//! run-time stack.

use fx_xml::{Attribute, Event};
use fx_xpath::{Axis, NodeTest, Query};

/// How many NFA states (steps + the initial one) a [`StateSet`] holds.
const MAX_STATES: usize = 128;

/// One step of a linear (predicate-free) path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The step's axis (`child` or `descendant`; attribute steps are not
    /// supported by the automata baselines).
    pub axis: Axis,
    /// The step's node test.
    pub test: NodeTest,
}

/// A linear path query: a successor chain with no predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearPath {
    /// The steps, root-outward.
    pub steps: Vec<PathStep>,
}

impl LinearPath {
    /// Extracts the linear path from a query, or `None` if the query has
    /// predicates or attribute steps (outside this baseline's fragment —
    /// exactly the limitation the paper's algorithm removes) or more
    /// than 127 steps: a [`StateSet`] holds 128 states, and query text is
    /// input, so the bound is checked here, once, for both filters.
    pub fn from_query(q: &Query) -> Option<LinearPath> {
        let mut steps = Vec::new();
        let mut cur = q.root();
        loop {
            if q.predicate(cur).is_some() || !q.predicate_children(cur).is_empty() {
                return None;
            }
            match q.successor(cur) {
                Some(next) => {
                    let axis = q.axis(next)?;
                    if axis == Axis::Attribute {
                        return None;
                    }
                    steps.push(PathStep {
                        axis,
                        test: q.ntest(next)?.clone(),
                    });
                    cur = next;
                }
                None => break,
            }
        }
        (1..MAX_STATES)
            .contains(&steps.len())
            .then_some(LinearPath { steps })
    }

    /// Parses a linear path from XPath text (test convenience).
    pub fn parse(src: &str) -> Option<LinearPath> {
        LinearPath::from_query(&fx_xpath::parse_query(src).ok()?)
    }

    /// Number of NFA states (steps + the initial state).
    pub fn state_count(&self) -> usize {
        self.steps.len() + 1
    }

    /// The NFA transition: from `state` (0 = initial) on reading an
    /// element named `name` at the *next* level, the set of successor
    /// states. A state also "survives" into deeper levels when the next
    /// step has a descendant axis (modelled by the caller keeping the
    /// state active).
    pub fn advances(&self, state: usize, name: &str) -> bool {
        self.steps.get(state).is_some_and(|s| s.test.passes(name))
    }

    /// Whether `state` may skip a level (its next step is `descendant`).
    pub fn may_skip(&self, state: usize) -> bool {
        self.steps
            .get(state)
            .is_some_and(|s| s.axis == Axis::Descendant)
    }

    /// The accepting state.
    pub fn accepting(&self) -> usize {
        self.steps.len()
    }
}

/// A compact bitset over NFA states (linear queries are small; 128 states
/// suffice for every experiment and keep the state `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StateSet(pub u128);

impl StateSet {
    /// The empty set.
    pub const EMPTY: StateSet = StateSet(0);

    /// Singleton `{s}`.
    pub fn singleton(s: usize) -> StateSet {
        StateSet(1u128 << s)
    }

    /// Inserts a state.
    pub fn insert(&mut self, s: usize) {
        self.0 |= 1u128 << s;
    }

    /// Membership.
    pub fn contains(&self, s: usize) -> bool {
        self.0 >> s & 1 == 1
    }

    /// Number of states in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the member states.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..MAX_STATES).filter(|&s| self.contains(s))
    }
}

/// The subset transition both the NFA filter (implicitly) and the lazy DFA
/// (explicitly) use: active states at the parent level → active states at
/// a child named `name`.
pub fn subset_transition(path: &LinearPath, from: StateSet, name: &str) -> StateSet {
    let mut next = StateSet::EMPTY;
    for s in from.iter() {
        if path.advances(s, name) {
            next.insert(s + 1);
        }
        if path.may_skip(s) {
            next.insert(s); // the descendant-axis step may fire deeper
        }
    }
    next
}

/// The NFA streaming filter: a stack of active state sets, one per open
/// element.
#[derive(Debug, Clone)]
pub struct NfaFilter {
    path: LinearPath,
    stack: Vec<StateSet>,
    matched: bool,
    result: Option<bool>,
    max_stack: usize,
    max_active: u32,
}

impl NfaFilter {
    /// Builds the filter for a linear query.
    pub fn new(q: &Query) -> Option<NfaFilter> {
        let path = LinearPath::from_query(q)?;
        Some(NfaFilter {
            path,
            stack: Vec::new(),
            matched: false,
            result: None,
            max_stack: 0,
            max_active: 0,
        })
    }

    fn start_element(&mut self, name: &str, _attrs: &[Attribute]) {
        let top = self
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| StateSet::singleton(0));
        let next = subset_transition(&self.path, top, name);
        if next.contains(self.path.accepting()) {
            self.matched = true;
        }
        self.stack.push(next);
        self.max_stack = self.max_stack.max(self.stack.len());
        self.max_active = self.max_active.max(next.len());
    }

    /// Feeds one event. A `StartDocument` resets the run-time stack (the
    /// automaton itself is immutable).
    pub fn process(&mut self, event: &Event) {
        match event {
            Event::StartDocument => {
                self.stack.clear();
                self.stack.push(StateSet::singleton(0));
                self.matched = false;
                self.result = None;
            }
            Event::EndDocument => self.result = Some(self.matched),
            Event::StartElement { name, attributes } => self.start_element(name, attributes),
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
        // One state set (m bits) per stack frame, plus the match flag.
        self.max_stack as u64 * self.path.state_count() as u64 + 1
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        "nfa"
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
    use fx_xpath::parse_query;

    fn run(src: &str, xml: &str) -> bool {
        let q = parse_query(src).unwrap();
        let mut f = NfaFilter::new(&q).unwrap();
        f.run_stream(&fx_xml::parse(xml).unwrap()).unwrap()
    }

    #[test]
    fn extracts_linear_paths_only() {
        assert!(LinearPath::parse("/a/b//c").is_some());
        assert!(LinearPath::parse("/a[b]/c").is_none());
        assert!(LinearPath::parse("/a/@id").is_none());
    }

    #[test]
    fn paths_longer_than_a_state_set_are_rejected_not_aliased() {
        // 127 steps = 128 states, the last one a `StateSet` can hold.
        for (steps, fits) in [(127, true), (128, false), (130, false)] {
            let q = parse_query(&"/a".repeat(steps)).unwrap();
            assert_eq!(NfaFilter::new(&q).is_some(), fits, "nfa, {steps} steps");
            assert_eq!(
                crate::LazyDfaFilter::new(&q).is_some(),
                fits,
                "lazy dfa, {steps} steps"
            );
        }
        // At the bound the accepting state is a real bit, not an alias.
        let q = parse_query(&"/a".repeat(127)).unwrap();
        let deep = format!("{}{}", "<a>".repeat(127), "</a>".repeat(127));
        let shallow = format!("{}{}", "<a>".repeat(126), "</a>".repeat(126));
        for (xml, expected) in [(&deep, true), (&shallow, false)] {
            let events = fx_xml::parse(xml).unwrap();
            let mut nfa = NfaFilter::new(&q).unwrap();
            let mut dfa = crate::LazyDfaFilter::new(&q).unwrap();
            assert_eq!(nfa.run_stream(&events), Some(expected));
            assert_eq!(dfa.run_stream(&events), Some(expected));
        }
    }

    #[test]
    fn child_and_descendant_semantics() {
        assert!(run("/a/b", "<a><b/></a>"));
        assert!(!run("/a/b", "<a><x><b/></x></a>"));
        assert!(run("//b", "<a><x><b/></x></a>"));
        assert!(run("/a//b", "<a><x><b/></x></a>"));
        assert!(!run("/a//b", "<c><b/></c>"));
        assert!(run("//a//b", "<r><a><c><b/></c></a></r>"));
    }

    #[test]
    fn wildcards() {
        assert!(run("/a/*/b", "<a><x><b/></x></a>"));
        assert!(!run("/a/*/b", "<a><b/></a>"));
        assert!(run("//a/*/*/b", "<r><a><x><y><b/></y></x></a></r>"));
    }

    #[test]
    fn agrees_with_reference_on_linear_queries() {
        let queries = ["/a/b", "//a//b", "/a//b/c", "//x", "/a/*/b", "//a/b//c"];
        let docs = [
            "<a><b><c/></b></a>",
            "<a><x><b/><b><c/></b></x></a>",
            "<x><a><b><q><c/></q></b></a></x>",
            "<a/>",
            "<a><a><b/></a></a>",
        ];
        for qs in queries {
            let q = parse_query(qs).unwrap();
            for xml in docs {
                let d = fx_dom::Document::from_xml(xml).unwrap();
                let expected = fx_eval::bool_eval(&q, &d).unwrap();
                let mut f = NfaFilter::new(&q).unwrap();
                let got = f.run_stream(&d.to_events()).unwrap();
                assert_eq!(got, expected, "{qs} on {xml}");
            }
        }
    }

    #[test]
    fn memory_grows_with_depth_not_length() {
        let q = parse_query("//a/b").unwrap();
        let shallow = fx_xml::parse(&format!("<r>{}</r>", "<a><b/></a>".repeat(50))).unwrap();
        let deep = fx_xml::parse(&format!(
            "<r>{}<a><b/></a>{}</r>",
            "<x>".repeat(50),
            "</x>".repeat(50)
        ))
        .unwrap();
        let mut f1 = NfaFilter::new(&q).unwrap();
        f1.run_stream(&shallow);
        let mut f2 = NfaFilter::new(&q).unwrap();
        f2.run_stream(&deep);
        assert!(f2.peak_memory_bits() > f1.peak_memory_bits());
    }

    #[test]
    fn stateset_ops() {
        let mut s = StateSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        assert!(s.contains(0) && s.contains(5) && !s.contains(3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5]);
    }
}
