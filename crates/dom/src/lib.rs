//! # fx-dom
//!
//! The XPath 2.0 / XQuery 1.0 data model (§3.1.1 of the paper): documents as
//! rooted trees with `KIND`, `NAME`, and `STRVAL`, built from SAX event
//! streams, plus the document measurements (`depth`, frontier size) that the
//! paper's bounds are stated in.
//!
//! ```
//! use fx_dom::{Document, measure};
//!
//! let doc = Document::from_xml("<a><c><e/><f/></c><b>6</b></a>").unwrap();
//! assert_eq!(measure::frontier_size(&doc), 3); // Fig. 3's largest frontier
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod measure;
pub mod serialize;
pub mod tree;

pub use builder::{from_events, from_xml, BuildError};
pub use tree::{Document, Node, NodeId, NodeKind};

impl Document {
    /// Parses XML text into a document (see [`builder::from_xml`]).
    pub fn from_xml(xml: &str) -> Result<Document, BuildError> {
        builder::from_xml(xml)
    }

    /// Builds a document from SAX events (see [`builder::from_events`]).
    pub fn from_sax(events: &[fx_xml::Event]) -> Result<Document, BuildError> {
        builder::from_events(events)
    }

    /// Serializes back to SAX events.
    pub fn to_events(&self) -> Vec<fx_xml::Event> {
        serialize::to_events(self)
    }

    /// Serializes to compact XML text.
    pub fn to_xml(&self) -> String {
        serialize::to_xml(self)
    }

    /// The document depth `d` (see [`measure::depth`]).
    pub fn depth(&self) -> usize {
        measure::depth(self)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_xml() -> impl Strategy<Value = String> {
        let leaf =
            prop::sample::select(vec!["<x/>", "<y>7</y>", "<z>text</z>"]).prop_map(String::from);
        leaf.prop_recursive(4, 32, 4, |inner| {
            (
                prop::sample::select(vec!["p", "q", "r"]),
                prop::collection::vec(inner, 0..4),
            )
                .prop_map(|(n, kids)| {
                    if kids.is_empty() {
                        format!("<{n}/>")
                    } else {
                        format!("<{n}>{}</{n}>", kids.concat())
                    }
                })
        })
    }

    proptest! {
        #[test]
        fn xml_document_round_trip(xml in arb_xml()) {
            let doc = Document::from_xml(&xml).unwrap();
            prop_assert_eq!(doc.to_xml(), xml);
        }

        #[test]
        fn events_round_trip(xml in arb_xml()) {
            let doc = Document::from_xml(&xml).unwrap();
            let rebuilt = Document::from_sax(&doc.to_events()).unwrap();
            prop_assert_eq!(rebuilt, doc);
        }

        #[test]
        fn depth_matches_stream_depth(xml in arb_xml()) {
            let doc = Document::from_xml(&xml).unwrap();
            let events = doc.to_events();
            prop_assert_eq!(doc.depth(), fx_xml::stream_depth(&events));
        }

        #[test]
        fn strval_is_concatenation_of_texts(xml in arb_xml()) {
            let doc = Document::from_xml(&xml).unwrap();
            let whole: String = doc.all_nodes()
                .filter(|&n| doc.kind(n) == NodeKind::Text)
                .map(|n| doc.strval(n))
                .collect();
            prop_assert_eq!(doc.strval(doc.root()), whole);
        }
    }
}
