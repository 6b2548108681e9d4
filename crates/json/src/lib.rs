//! # fx-json — a streaming JSON → event frontend
//!
//! The frontier core evaluates XPath over *event streams*, and the
//! paper's `O(FS(Q)·log d)` memory bound (Bar-Yossef, Fontoura,
//! Josifovski; PODS 2004) holds for any stream of nesting depth `d` —
//! nothing about it is XML-specific. This crate maps JSON documents
//! onto that event surface, so JSONPath-style queries (`/json/user/name`,
//! `//order[total]`, …) run with the same engine, sessions, and
//! frontier-bounded memory as XML, over record streams far larger than
//! RAM. All of it is grammar: [`JsonParser`] is
//! `fx_xml::Frontend<JsonGrammar>` and [`NdjsonParser`] is
//! `fx_xml::Frontend<NdjsonGrammar>` (one JSON grammar run per line) —
//! input buffering at arbitrary chunk boundaries, UTF-8 carrying, name
//! resolution, the two reader drivers and the `fx_xml::EventSource`
//! impl are the shared chassis (see `fx_xml::source`).
//!
//! # The JSON → element mapping
//!
//! The whole document becomes one `<json>` root element; inside it:
//!
//! * an **object member** `"k": v` becomes the element `<k>` holding
//!   the mapping of `v`;
//! * a **scalar** becomes text: strings decode their escapes, numbers
//!   and booleans keep their literal spelling (so XPath comparisons
//!   see `42` or `true`), and `null` maps to an empty element;
//! * a **member-value array splices**: each item repeats the member's
//!   element (`{"a":[1,2]}` ≡ `<a>1</a><a>2</a>`), which is what makes
//!   `/json/a` select every item;
//! * an **array in item position wraps**: a nested array keeps its
//!   slot's element and names its own items `item`
//!   (`{"a":[[1,2],[3]]}` ≡ `<a><item>1</item><item>2</item></a>`
//!   `<a><item>3</item></a>`), preserving structure;
//! * a **root array** likewise names its items `item` inside `<json>`.
//!
//! ```
//! use fx_json::parse_json;
//! use fx_xml::to_xml;
//!
//! let events = parse_json(r#"{"user":{"name":"ada","tags":["a","b"]}}"#).unwrap();
//! assert_eq!(
//!     to_xml(&events).unwrap(),
//!     "<json><user><name>ada</name><tags>a</tags><tags>b</tags></user></json>"
//! );
//! ```
//!
//! Keys are interned as QNames through the source's shared `Symbols`
//! table — or, in `lookup_only` mode, resolved read-only so unbounded
//! key vocabularies never grow the table. Malformed JSON is a proper
//! `ParseError` (unlike `fx-html`, there is no soup to recover);
//! numbers are passed through by token shape without full grammar
//! validation.

#![warn(missing_docs)]

pub mod ndjson;
pub mod parser;

pub use ndjson::{NdjsonGrammar, NdjsonParser};
pub use parser::{parse_json, JsonGrammar, JsonParser};
