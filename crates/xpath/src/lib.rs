//! # fx-xpath
//!
//! Forward XPath (Fig. 1 of the paper): the query-tree data model of §3.1.2,
//! a lexer/parser for the grammar, the atomic value model and Effective
//! Boolean Value of §3.1.1/§3.1.3, the predicate-evaluation operator
//! semantics of Definition 3.5, and a small regex engine for `fn:matches`.
//!
//! ```
//! use fx_xpath::parse_query;
//!
//! let q = parse_query("/a[c[.//e and f] and b > 5]/b").unwrap(); // Fig. 2
//! assert_eq!(q.len(), 7);
//! assert_eq!(fx_xpath::to_xpath(&q), "/a[c[.//e and f] and b > 5]/b");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod canonical;
pub mod display;
pub mod ops;
pub mod parser;
pub mod regexlite;
pub mod truth;
pub mod value;

pub use ast::{ArithOp, Axis, CompOp, Expr, Func, NodeTest, Query, QueryNode, QueryNodeId};
pub use display::to_xpath;
pub use ops::{apply_arith, apply_comp, apply_func, eval_expr, eval_with_binding, EvalError};
pub use parser::{parse_query, QueryParseError};
pub use regexlite::{Regex, RegexError};
pub use value::{EvalResult, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random syntactically valid queries, round-tripped through the
    /// printer and parser.
    fn arb_query_src() -> impl Strategy<Value = String> {
        let name = prop::sample::select(vec!["a", "b", "c", "d", "e"]);
        let axis = prop::sample::select(vec!["/", "//"]);
        let pred = prop::sample::select(vec![
            "[b]",
            "[b > 5]",
            "[b and c]",
            "[.//e and f]",
            "[b = \"x\"]",
            "[contains(b, \"q\")]",
            "",
        ]);
        prop::collection::vec((axis, name, pred), 1..5).prop_map(|steps| {
            steps
                .into_iter()
                .map(|(a, n, p)| format!("{a}{n}{p}"))
                .collect::<String>()
        })
    }

    proptest! {
        #[test]
        fn parse_print_round_trip(src in arb_query_src()) {
            let q = parse_query(&src).unwrap();
            let printed = to_xpath(&q);
            let q2 = parse_query(&printed).unwrap();
            prop_assert_eq!(q2, q);
        }

        #[test]
        fn validate_holds_for_all_parsed(src in arb_query_src()) {
            let q = parse_query(&src).unwrap();
            prop_assert!(q.validate().is_ok());
        }

        #[test]
        fn node_test_passage(name in "[a-z]{1,4}") {
            prop_assert!(NodeTest::Wildcard.passes(&name));
            prop_assert!(NodeTest::Name(name.clone()).passes(&name));
            let longer = format!("{name}x");
            prop_assert!(!NodeTest::Name(longer).passes(&name));
        }
    }
}
