//! The SAX event model of Section 3.1.4 of the paper.
//!
//! A streaming algorithm receives an XML document as a sequence of five kinds
//! of events: `startDocument()` (written `〈$〉`), `endDocument()` (`〈/$〉`),
//! `startElement(n)` (`〈n〉`), `endElement(n)` (`〈/n〉`) and `text(α)`.
//!
//! Attributes are carried on [`Event::StartElement`]; the paper treats the
//! attribute axis as a special case of the child axis (§3.1.2), and downstream
//! consumers expand attributes into child-like sub-events when needed.

use std::fmt;

/// An attribute of an element start event: a `(name, value)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// The attribute name (without any `@` sigil).
    pub name: String,
    /// The attribute value, already entity-decoded.
    pub value: String,
}

impl Attribute {
    /// Creates an attribute from anything string-like.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// A single SAX event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// `startDocument()`, denoted `〈$〉` in the paper.
    StartDocument,
    /// `endDocument()`, denoted `〈/$〉`.
    EndDocument,
    /// `startElement(n)`, denoted `〈n〉`. Carries the attributes of the tag.
    StartElement {
        /// The element name `n ∈ N`.
        name: String,
        /// The attributes appearing on the start tag, in document order.
        attributes: Vec<Attribute>,
    },
    /// `endElement(n)`, denoted `〈/n〉`.
    EndElement {
        /// The element name; must match the corresponding start event.
        name: String,
    },
    /// `text(α)`, a text node with content `α ∈ S`.
    Text {
        /// The (entity-decoded) character content.
        content: String,
    },
}

impl Event {
    /// Shorthand constructor for a start-element event without attributes.
    pub fn start(name: impl Into<String>) -> Self {
        Event::StartElement {
            name: name.into(),
            attributes: Vec::new(),
        }
    }

    /// Shorthand constructor for a start-element event with attributes.
    pub fn start_with_attrs(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        Event::StartElement {
            name: name.into(),
            attributes,
        }
    }

    /// Shorthand constructor for an end-element event.
    pub fn end(name: impl Into<String>) -> Self {
        Event::EndElement { name: name.into() }
    }

    /// Shorthand constructor for a text event.
    pub fn text(content: impl Into<String>) -> Self {
        Event::Text {
            content: content.into(),
        }
    }

    /// Returns the element name if this is a start- or end-element event.
    pub fn element_name(&self) -> Option<&str> {
        match self {
            Event::StartElement { name, .. } | Event::EndElement { name } => Some(name),
            _ => None,
        }
    }

    /// True for [`Event::StartElement`].
    pub fn is_start(&self) -> bool {
        matches!(self, Event::StartElement { .. })
    }

    /// True for [`Event::EndElement`].
    pub fn is_end(&self) -> bool {
        matches!(self, Event::EndElement { .. })
    }

    /// The paper's angle-bracket notation for a single event (`〈a〉`, `〈/a〉`,
    /// `〈$〉`, `〈/$〉`, or the raw text).
    pub fn notation(&self) -> String {
        match self {
            Event::StartDocument => "\u{27e8}$\u{27e9}".to_string(),
            Event::EndDocument => "\u{27e8}/$\u{27e9}".to_string(),
            Event::StartElement { name, attributes } => {
                if attributes.is_empty() {
                    format!("\u{27e8}{name}\u{27e9}")
                } else {
                    let attrs: Vec<String> = attributes
                        .iter()
                        .map(|a| format!("{}={:?}", a.name, a.value))
                        .collect();
                    format!("\u{27e8}{name} {}\u{27e9}", attrs.join(" "))
                }
            }
            Event::EndElement { name } => format!("\u{27e8}/{name}\u{27e9}"),
            Event::Text { content } => content.clone(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.notation())
    }
}

/// Renders an event sequence in the paper's notation, e.g.
/// `〈a〉〈b〉6〈/b〉〈/a〉`.
pub fn notation(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.notation());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_matches_paper_style() {
        let events = vec![
            Event::StartDocument,
            Event::start("a"),
            Event::start("b"),
            Event::text("6"),
            Event::end("b"),
            Event::end("a"),
            Event::EndDocument,
        ];
        assert_eq!(
            notation(&events),
            "\u{27e8}$\u{27e9}\u{27e8}a\u{27e9}\u{27e8}b\u{27e9}6\u{27e8}/b\u{27e9}\u{27e8}/a\u{27e9}\u{27e8}/$\u{27e9}"
        );
    }

    #[test]
    fn element_name_accessor() {
        assert_eq!(Event::start("x").element_name(), Some("x"));
        assert_eq!(Event::end("x").element_name(), Some("x"));
        assert_eq!(Event::text("x").element_name(), None);
        assert_eq!(Event::StartDocument.element_name(), None);
    }

    #[test]
    fn start_is_start_end_is_end() {
        assert!(Event::start("a").is_start());
        assert!(!Event::start("a").is_end());
        assert!(Event::end("a").is_end());
        assert!(!Event::text("t").is_start());
    }

    #[test]
    fn attribute_notation_renders_pairs() {
        let e = Event::start_with_attrs("a", vec![Attribute::new("id", "1")]);
        assert_eq!(e.notation(), "\u{27e8}a id=\"1\"\u{27e9}");
    }
}
