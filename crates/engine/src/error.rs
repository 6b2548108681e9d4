//! The engine's unified error type.
//!
//! Every layer below the engine has its own precise error
//! (`fx_xpath::QueryParseError`, `fx_core::UnsupportedQuery`,
//! `fx_xml::ParseError`, …), all of which implement `std::error::Error`.
//! [`EngineError`] is the composition point: it wraps each of them with
//! enough context (the query's index) to act on, implements `source()`
//! chaining, and converts via `?` through `From`.

use fx_core::UnsupportedQuery;
use fx_xml::ParseError;
use fx_xpath::QueryParseError;
use std::fmt;

/// Everything the engine can reject, as one `std::error::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// `build()` was called on a builder with no queries.
    NoQueries,
    /// A query source string did not parse as Forward XPath.
    QueryParse {
        /// Position of the query among the builder's additions.
        index: usize,
        /// The parser's error.
        source: QueryParseError,
    },
    /// A query lies outside the fragment the streaming filter supports.
    Unsupported {
        /// Position of the query among the builder's additions.
        index: usize,
        /// Why the streaming filter rejected it.
        source: UnsupportedQuery,
    },
    /// The document stream was malformed XML (or unreadable).
    Parse(ParseError),
    /// `finish()` was called before `EndDocument` was seen.
    IncompleteDocument,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoQueries => write!(f, "engine built with no queries"),
            EngineError::QueryParse { index, source } => {
                write!(f, "query #{index} does not parse: {source}")
            }
            EngineError::Unsupported { index, source } => {
                write!(
                    f,
                    "query #{index} is outside the streamable fragment: {source}"
                )
            }
            EngineError::Parse(e) => write!(f, "document stream: {e}"),
            EngineError::IncompleteDocument => {
                write!(f, "finish() called before EndDocument was pushed")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::QueryParse { source, .. } => Some(source),
            EngineError::Unsupported { source, .. } => Some(source),
            EngineError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> EngineError {
        EngineError::Parse(e)
    }
}

/// Preserves the legacy `MultiFilter::new` error shape — an index plus
/// the per-query rejection.
impl From<(usize, UnsupportedQuery)> for EngineError {
    fn from((index, source): (usize, UnsupportedQuery)) -> EngineError {
        EngineError::Unsupported { index, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_chains_sources() {
        let parse_err = fx_xml::parse("<a><b></a>").unwrap_err();
        let e: EngineError = parse_err.clone().into();
        assert!(e.to_string().contains("document stream"));
        assert_eq!(e.source().unwrap().to_string(), parse_err.to_string());

        let q = fx_xpath::parse_query("/a[not(b)]").unwrap();
        let unsupported = fx_core::CompiledQuery::compile(&q).unwrap_err();
        let e: EngineError = (3usize, unsupported).into();
        assert!(e.to_string().contains("query #3"), "{e}");
        assert!(e.source().is_some());
    }

    #[test]
    fn question_mark_composes() {
        fn parse_doc(xml: &str) -> Result<Vec<fx_xml::Event>, EngineError> {
            Ok(fx_xml::parse(xml)?)
        }
        assert!(parse_doc("<a/>").is_ok());
        assert!(matches!(parse_doc("<a>"), Err(EngineError::Parse(_))));
    }
}
