//! # fx-workloads
//!
//! Seeded, deterministic generators for the documents and queries the
//! experiments sweep over: random trees, the paper's adversarial families
//! (depth documents of Thm 4.6, DISJ documents of Thm 4.5), random
//! redundancy-free queries, and a miniature XMark-style auction-site
//! generator for realistic end-to-end scenarios.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod docs;
pub mod frontends;
pub mod queries;
pub mod xmark;

pub use docs::{
    depth_document, disjointness_document, long_text, nested, random_document, small_alphabet,
    wide, RandomDocConfig,
};
pub use frontends::{
    html_soup_corpus, html_soup_document, json_queries, json_record, json_records, soup_queries,
    HtmlSoupConfig, JsonRecord, JsonRecordsConfig, SoupDoc,
};
pub use queries::{
    balanced_twig, descendant_chain, random_redundancy_free, random_shared_prefix_bank, star,
    RandomQueryConfig, SharedPrefixBank, SharedPrefixBankConfig,
};
pub use xmark::{auction_site, standing_queries, XmarkConfig};
