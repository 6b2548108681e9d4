//! # fx-xml
//!
//! The XML substrate of the `frontier-xpath` workspace: the SAX event model
//! of §3.1.4 of *Bar-Yossef, Fontoura, Josifovski — On the Memory
//! Requirements of XPath Evaluation over XML Streams* (PODS 2004 / JCSS
//! 2007), a streaming XML parser producing those events, a writer, a
//! well-formedness checker, and the stream-splitting utilities used by the
//! paper's communication-complexity reductions.
//!
//! ```
//! use fx_xml::{parse, to_xml, is_well_formed};
//!
//! let events = parse("<a><b>6</b></a>").unwrap();
//! assert!(is_well_formed(&events));
//! assert_eq!(to_xml(&events).unwrap(), "<a><b>6</b></a>");
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod escape;
pub mod event;
pub mod iter;
pub mod parser;
pub mod reader;
pub mod scan;
pub mod source;
pub mod span;
pub mod split;
pub mod symbols;
pub mod wellformed;
pub mod writer;

pub use batch::{EventBatch, BATCH_BYTES, BATCH_EVENTS};
pub use escape::{decode_entities, decode_entities_into, escape_attr, escape_text};
pub use event::{notation, Attribute, Event};
pub use iter::{EventIter, SpannedEvents};
pub use parser::{parse, parse_spanned, parse_spanned_with, parse_with, ParseError, ParseOptions};
pub use reader::{StreamingParser, XmlGrammar};
pub use source::{Cursor, EventSource, Frontend, Grammar, Names, WhitespaceText};
pub use span::Span;
pub use split::{
    element_range, find_nth, first_end, first_start, matching_end, splice, Segmentation,
};
pub use symbols::{AttrBuf, Sym, SymAttr, SymCache, SymEvent, Symbols, SymbolsSnapshot};
pub use wellformed::{check, is_well_formed, stream_depth, Violation};
pub use writer::{to_pretty_xml, to_xml, WriteError};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: random small element trees rendered to events.
    fn arb_tree(depth: u32) -> impl Strategy<Value = Vec<Event>> {
        let name = prop::sample::select(vec!["a", "b", "c", "d", "e"]);
        let text = "[ -~]{1,12}".prop_filter("non-ws", |s: &String| !s.trim().is_empty());
        let leaf = (name.clone(), prop::option::of(text)).prop_map(|(n, t)| {
            let mut v = vec![Event::start(n)];
            if let Some(t) = t {
                v.push(Event::text(t));
            }
            v.push(Event::end(n));
            v
        });
        leaf.prop_recursive(depth, 64, 4, move |inner| {
            (
                prop::sample::select(vec!["r", "s", "t"]),
                prop::collection::vec(inner, 1..4),
            )
                .prop_map(|(n, kids)| {
                    let mut v = vec![Event::start(n)];
                    for k in kids {
                        v.extend(k);
                    }
                    v.push(Event::end(n));
                    v
                })
        })
    }

    proptest! {
        #[test]
        fn write_parse_round_trip(body in arb_tree(3)) {
            let mut events = vec![Event::StartDocument];
            events.extend(body);
            events.push(Event::EndDocument);
            prop_assert!(is_well_formed(&events));
            let xml = to_xml(&events).unwrap();
            let reparsed = parse_with(&xml, ParseOptions { keep_whitespace_text: true }).unwrap();
            prop_assert_eq!(reparsed, events);
        }

        #[test]
        fn pretty_parse_preserves_structure(body in arb_tree(3)) {
            let mut events = vec![Event::StartDocument];
            events.extend(body);
            events.push(Event::EndDocument);
            let pretty = to_pretty_xml(&events).unwrap();
            // Whitespace-insensitive parse must recover the same element
            // structure (text may gain surrounding whitespace in pretty form,
            // so compare element events only).
            let reparsed = parse(&pretty).unwrap();
            let elems = |evs: &[Event]| evs.iter().filter(|e| e.is_start() || e.is_end())
                .cloned().collect::<Vec<_>>();
            prop_assert_eq!(elems(&reparsed), elems(&events));
        }

        #[test]
        fn escape_round_trip(s in "[ -~]{0,40}") {
            let esc = escape_attr(&s).into_owned();
            prop_assert_eq!(decode_entities(&esc).unwrap(), s);
        }

        #[test]
        fn segmentation_splice_identity(body in arb_tree(2), cut1 in 0usize..20, cut2 in 0usize..20) {
            let mut events = vec![Event::StartDocument];
            events.extend(body);
            events.push(Event::EndDocument);
            let n = events.len();
            let seg = Segmentation::new(events.clone(), vec![cut1.min(n), cut2.min(n)]);
            prop_assert_eq!(splice(&seg.segments()), events);
        }
    }
}
