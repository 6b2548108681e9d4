//! # fx-automata
//!
//! The automata-based streaming baselines the paper positions its
//! algorithm against (§1.2, §2): an NFA filter with a run-time stack of
//! active state sets (XFilter/YFilter style), a lazily-determinized DFA
//! with a memoized transition table (Green et al. style), and the
//! buffer-everything strawman. All are instrumented for the same logical
//! memory measure as the paper's algorithm, so the benchmark harness can
//! report who wins where.
//!
//! Each baseline exposes the same `new` / `process` / `run_stream` /
//! `verdict` / `peak_memory_bits` shape as inherent methods, which is
//! also the shape of the paper's own `fx_core::StreamFilter`. They are
//! baselines, not product options: `fx-engine` does not link this crate.
//! Construct a filter directly, as `fx-experiments` (E9, E10), the
//! `baseline_shootout` example and the differential suites do.

#![warn(missing_docs)]

pub mod buffering;
pub mod dfa;
pub mod linear;

pub use buffering::BufferingFilter;
pub use dfa::LazyDfaFilter;
pub use linear::{LinearPath, NfaFilter, PathStep, StateSet};

#[cfg(test)]
mod crosscheck {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const LINEAR_QUERIES: &[&str] = &[
        "/a/b",
        "//a//b",
        "/a//b/c",
        "//x",
        "/a/*/b",
        "//a/b//c",
        "//a/*/*/b",
    ];

    proptest! {
        /// All four engines agree on linear queries over random documents.
        #[test]
        fn four_way_agreement(qi in 0..LINEAR_QUERIES.len(), seed in 0u64..500) {
            let q = fx_xpath::parse_query(LINEAR_QUERIES[qi]).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let d = fx_workloads::random_document(&mut rng, &fx_workloads::RandomDocConfig::default());
            let events = d.to_events();
            let reference = fx_eval::bool_eval(&q, &d).unwrap();
            let mut nfa = NfaFilter::new(&q).unwrap();
            let mut dfa = LazyDfaFilter::new(&q).unwrap();
            let mut buf = BufferingFilter::new(&q);
            let mut frontier = fx_core::StreamFilter::new(&q).unwrap();
            prop_assert_eq!(nfa.run_stream(&events), Some(reference));
            prop_assert_eq!(dfa.run_stream(&events), Some(reference));
            prop_assert_eq!(buf.run_stream(&events), Some(reference));
            prop_assert_eq!(frontier.run_stream(&events), Some(reference));
        }
    }
}
