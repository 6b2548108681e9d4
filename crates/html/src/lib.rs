//! # fx-html — a lenient streaming HTML-soup frontend
//!
//! The frontier core consumes interned `SymEvent`s, not XML text, and
//! the paper's `O(FS(Q)·log d)` memory bound (Bar-Yossef, Fontoura,
//! Josifovski; PODS 2004) is stated over event streams of nesting
//! depth `d` — so any tokenizer that emits the same event surface
//! inherits the space guarantee. This crate is that tokenizer for
//! real-world HTML, and all of it is grammar: [`HtmlParser`] is
//! `fx_xml::Frontend<HtmlGrammar>` — input buffering, UTF-8 carrying,
//! name resolution, the batched reader driver and the
//! `fx_xml::EventSource` impl are the shared chassis (see
//! `fx_xml::source`); [`HtmlGrammar`] holds only the soup rules. It
//! **never reports a structural error**, and recovers from tag soup by
//! the rules below, so scraped pages can be queried with the same
//! engine, sessions, and memory bounds as well-formed XML.
//!
//! # Recovery rules
//!
//! * **Names case-fold**: element and attribute names are ASCII
//!   lower-cased (`<DIV Class=x>` ≡ `<div class=x>`).
//! * **Void elements** (`<br>`, `<img>`, `<input>`, `<hr>`, `<meta>`,
//!   `<link>`, …) are complete at their start tag: the parser emits
//!   start+end immediately and drops stray `</br>`-style end tags.
//! * **Implied end tags**: a new `<li>` closes an open `li`; `<dt>`/
//!   `<dd>`, table parts (`<tr>`, `<td>`, `<th>`, `<thead>`-family)
//!   and `<option>`/`<optgroup>` close their open siblings; block
//!   starts (`<div>`, `<ul>`, `<h1>`…, `<table>`, `<p>`, …) close an
//!   open `<p>`. End-of-input closes everything still open.
//! * **End-tag matching is forgiving**: `</x>` closes up to the
//!   nearest open `x` (elements above it get implied ends); with no
//!   open `x` it is dropped. `</>` and `</ junk>` are dropped.
//! * **Raw text**: `<script>`/`<style>` content is verbatim text to
//!   the matching case-insensitive closer; `<title>`/`<textarea>`
//!   likewise but with character references decoded.
//! * **Attribute quirks**: unquoted, single-quoted, and valueless
//!   attributes all parse; duplicates keep the first value; an
//!   unterminated quote swallows the rest of the tag.
//! * **Lenient character references**: the common named set plus
//!   numeric forms decode; anything else (including a bare `&`) passes
//!   through literally (see [`entities`]).
//! * **Markup soup**: a `<` not followed by a letter, `!`, `/`, or `?`
//!   is literal text; comments, doctypes, and `<?…>` are dropped; a
//!   trailing `/` on a non-void start tag is ignored (`<div/>` opens a
//!   `div`); end-of-input inside a tag drops the partial token.
//! * **No implicit wrappers**: unlike a full HTML5 tree builder, the
//!   parser does not synthesize `<html>`/`<body>`; multiple top-level
//!   elements stream as siblings and top-level text outside any
//!   element is dropped.
//!
//! The only errors [`HtmlParser`] can surface are invalid UTF-8 and,
//! from the reader drivers, a failed read — both positioned (`at byte N`).
//!
//! ```
//! use fx_html::parse_html;
//! use fx_xml::Event;
//!
//! // Unclosed <li>, uppercase tag, void <br>: all recover.
//! let events = parse_html("<UL><li>a<br><li>b</ul>");
//! assert_eq!(events, parse_html("<ul><li>a<br></br></li><li>b</li></ul>"));
//! assert!(events.contains(&Event::start("br")));
//! ```

#![warn(missing_docs)]

pub mod entities;
pub mod parser;

pub use entities::decode_html_entities_into;
pub use parser::{parse_html, HtmlGrammar, HtmlParser};
