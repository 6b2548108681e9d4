//! A miniature auction-site document generator in the spirit of the XMark
//! benchmark: realistic element names, mild recursion (nested categories),
//! attributes, and text payloads. Used by the examples, `fxbench` and the
//! experiment harness.

use fx_dom::{Document, NodeId, NodeKind};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`auction_site`].
#[derive(Debug, Clone)]
pub struct XmarkConfig {
    /// Number of items listed.
    pub items: usize,
    /// Number of open auctions.
    pub auctions: usize,
    /// Number of registered people.
    pub people: usize,
    /// Depth of the nested category tree.
    pub category_depth: usize,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig {
            items: 20,
            auctions: 10,
            people: 10,
            category_depth: 3,
        }
    }
}

const WORDS: &[&str] = &[
    "vintage", "rare", "antique", "mint", "boxed", "signed", "limited", "classic", "original",
    "restored",
];

/// Generates a deterministic auction-site document from a seeded RNG.
pub fn auction_site<R: Rng>(rng: &mut R, cfg: &XmarkConfig) -> Document {
    let mut d = Document::empty();
    let site = d.push_node(NodeId::ROOT, NodeKind::Element, "site", "");

    let regions = d.push_node(site, NodeKind::Element, "regions", "");
    for region in ["africa", "asia", "europe"] {
        let r = d.push_node(regions, NodeKind::Element, region, "");
        for i in 0..cfg.items {
            let item = d.push_node(r, NodeKind::Element, "item", "");
            d.push_node(item, NodeKind::Attribute, "id", format!("item{i}"));
            let name = d.push_node(item, NodeKind::Element, "name", "");
            let w1 = WORDS.choose(rng).expect("non-empty");
            let w2 = WORDS.choose(rng).expect("non-empty");
            d.push_node(name, NodeKind::Text, "", format!("{w1} {w2}"));
            let price = d.push_node(item, NodeKind::Element, "price", "");
            d.push_node(
                price,
                NodeKind::Text,
                "",
                format!("{}", rng.gen_range(1..500)),
            );
            if rng.gen_bool(0.4) {
                let ship = d.push_node(item, NodeKind::Element, "shipping", "");
                d.push_node(ship, NodeKind::Text, "", "worldwide".to_string());
            }
        }
    }

    let auctions = d.push_node(site, NodeKind::Element, "open_auctions", "");
    for i in 0..cfg.auctions {
        let a = d.push_node(auctions, NodeKind::Element, "open_auction", "");
        d.push_node(a, NodeKind::Attribute, "id", format!("auction{i}"));
        let initial = d.push_node(a, NodeKind::Element, "initial", "");
        d.push_node(
            initial,
            NodeKind::Text,
            "",
            format!("{}", rng.gen_range(1..100)),
        );
        for _ in 0..rng.gen_range(0..4) {
            let bid = d.push_node(a, NodeKind::Element, "bidder", "");
            let inc = d.push_node(bid, NodeKind::Element, "increase", "");
            d.push_node(inc, NodeKind::Text, "", format!("{}", rng.gen_range(1..50)));
        }
        let current = d.push_node(a, NodeKind::Element, "current", "");
        d.push_node(
            current,
            NodeKind::Text,
            "",
            format!("{}", rng.gen_range(100..1000)),
        );
    }

    let people = d.push_node(site, NodeKind::Element, "people", "");
    for i in 0..cfg.people {
        let p = d.push_node(people, NodeKind::Element, "person", "");
        d.push_node(p, NodeKind::Attribute, "id", format!("person{i}"));
        let name = d.push_node(p, NodeKind::Element, "name", "");
        d.push_node(name, NodeKind::Text, "", format!("user{i}"));
        if rng.gen_bool(0.6) {
            let watch = d.push_node(p, NodeKind::Element, "watches", "");
            let w = d.push_node(watch, NodeKind::Element, "watch", "");
            d.push_node(
                w,
                NodeKind::Attribute,
                "auction",
                format!("auction{}", rng.gen_range(0..cfg.auctions.max(1))),
            );
        }
    }

    // Nested categories: the recursive part of the schema.
    let cats = d.push_node(site, NodeKind::Element, "categories", "");
    let mut cur = cats;
    for depth in 0..cfg.category_depth {
        cur = d.push_node(cur, NodeKind::Element, "category", "");
        d.push_node(cur, NodeKind::Attribute, "id", format!("cat{depth}"));
        let name = d.push_node(cur, NodeKind::Element, "name", "");
        d.push_node(name, NodeKind::Text, "", format!("level {depth}"));
    }
    d
}

/// The benchmark's standing queries over the auction schema (all within
/// the filter's supported fragment).
pub fn standing_queries() -> Vec<(&'static str, fx_xpath::Query)> {
    [
        ("expensive items", "//item[price > 300]"),
        ("shipped items", "//item[shipping and price]"),
        (
            "active auctions",
            "//open_auction[bidder and current > 500]",
        ),
        ("watchers", "//person[name and watches]"),
        ("deep categories", "//category[category and name]"),
        ("asia items", "/site/regions/asia/item"),
    ]
    .into_iter()
    .map(|(label, src)| {
        (
            label,
            fx_xpath::parse_query(src).expect("standing query parses"),
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn generates_valid_recursive_documents() {
        let mut rng = SmallRng::seed_from_u64(99);
        let d = auction_site(&mut rng, &XmarkConfig::default());
        assert!(d.len() > 100);
        // The category chain is recursive.
        assert!(fx_dom::measure::max_same_name_nesting(&d) >= 3);
        // Round-trips through XML.
        let xml = d.to_xml();
        assert_eq!(Document::from_xml(&xml).unwrap(), d);
    }

    #[test]
    fn standing_queries_run_and_some_match() {
        let mut rng = SmallRng::seed_from_u64(7);
        let d = auction_site(
            &mut rng,
            &XmarkConfig {
                items: 50,
                auctions: 30,
                people: 20,
                category_depth: 4,
            },
        );
        let mut matched = 0;
        for (label, q) in standing_queries() {
            let reference = fx_eval::bool_eval(&q, &d).unwrap();
            let streamed = fx_core::StreamFilter::new(&q)
                .unwrap()
                .run_stream(&d.to_events())
                .unwrap();
            assert_eq!(reference, streamed, "{label}");
            matched += usize::from(reference);
        }
        assert!(matched >= 3, "expected several standing queries to match");
    }
}
