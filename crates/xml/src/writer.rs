//! Serializing SAX event sequences back to XML text.

use crate::escape::{escape_attr, escape_text};
use crate::event::Event;
use std::fmt;

/// An error produced when serializing a malformed event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteError {
    /// Description of the structural problem.
    pub message: String,
    /// Index of the offending event.
    pub at: usize,
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot serialize event {}: {}", self.at, self.message)
    }
}

impl std::error::Error for WriteError {}

/// Serializes events to compact XML. The event sequence must be well-formed
/// (see [`crate::wellformed::check`]); self-closing tags are emitted for
/// empty elements.
pub fn to_xml(events: &[Event]) -> Result<String, WriteError> {
    let mut out = String::new();
    // Holds the pending start tag so that `<a></a>` collapses to `<a/>`.
    let mut pending: Option<String> = None;

    let flush = |out: &mut String, pending: &mut Option<String>| {
        if let Some(tag) = pending.take() {
            out.push_str(&tag);
            out.push('>');
        }
    };

    for (i, e) in events.iter().enumerate() {
        match e {
            Event::StartDocument | Event::EndDocument => {
                flush(&mut out, &mut pending);
            }
            Event::StartElement { name, attributes } => {
                flush(&mut out, &mut pending);
                let mut tag = format!("<{name}");
                for a in attributes {
                    tag.push_str(&format!(" {}=\"{}\"", a.name, escape_attr(&a.value)));
                }
                pending = Some(tag);
            }
            Event::EndElement { name } => {
                if let Some(tag) = pending.take() {
                    out.push_str(&tag);
                    out.push_str("/>");
                } else {
                    out.push_str(&format!("</{name}>"));
                }
            }
            Event::Text { content } => {
                flush(&mut out, &mut pending);
                if content.is_empty() {
                    return Err(WriteError {
                        message: "empty text event".into(),
                        at: i,
                    });
                }
                out.push_str(&escape_text(content));
            }
        }
    }
    if pending.is_some() {
        return Err(WriteError {
            message: "unterminated start tag".into(),
            at: events.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trip_compact() {
        let src = "<a><c><e/><f/></c><b>6</b></a>";
        let events = parse(src).unwrap();
        assert_eq!(to_xml(&events).unwrap(), src);
    }

    #[test]
    fn escapes_on_output() {
        let events = vec![
            Event::StartDocument,
            Event::start("a"),
            Event::text("1 < 2 & 3"),
            Event::end("a"),
            Event::EndDocument,
        ];
        assert_eq!(to_xml(&events).unwrap(), "<a>1 &lt; 2 &amp; 3</a>");
    }

    #[test]
    fn attribute_round_trip() {
        let src = r#"<a id="1" q="x &amp; y"><b/></a>"#;
        let events = parse(src).unwrap();
        assert_eq!(to_xml(&events).unwrap(), src);
    }
}
