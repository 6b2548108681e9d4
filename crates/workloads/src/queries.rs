//! Seeded query generators, including random members of Redundancy-free
//! XPath (used by the generalized lower-bound experiments E4–E6).

use fx_xpath::{parse_query, Query};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`random_redundancy_free`].
#[derive(Debug, Clone)]
pub struct RandomQueryConfig {
    /// Upper bound on the number of steps/predicate children generated.
    pub max_nodes: usize,
    /// Probability of a descendant axis per step.
    pub descendant_prob: f64,
    /// Probability a node gets a predicate with children.
    pub predicate_prob: f64,
}

impl Default for RandomQueryConfig {
    fn default() -> Self {
        RandomQueryConfig {
            max_nodes: 12,
            descendant_prob: 0.3,
            predicate_prob: 0.5,
        }
    }
}

/// Generates a random redundancy-free query. Distinct element names are
/// drawn without replacement, which guarantees path-consistency-freeness
/// of the structure; numeric predicates use disjoint intervals so the
/// sunflower properties hold trivially. The result is checked against
/// `fx_analysis::redundancy_free` by the caller's tests.
pub fn random_redundancy_free<R: Rng>(rng: &mut R, cfg: &RandomQueryConfig) -> Query {
    // A pool of distinct names: n0, n1, … — never reused, so no two query
    // nodes are path consistent and no automorphism collapses nodes.
    let mut next_name = 0usize;
    let mut budget = cfg.max_nodes.max(2);
    let src = gen_path(rng, cfg, &mut next_name, &mut budget, true);
    parse_query(&src).expect("generated query is syntactically valid")
}

fn fresh(next_name: &mut usize) -> String {
    let n = format!("n{next_name}");
    *next_name += 1;
    n
}

fn gen_path<R: Rng>(
    rng: &mut R,
    cfg: &RandomQueryConfig,
    next_name: &mut usize,
    budget: &mut usize,
    top: bool,
) -> String {
    let mut out = String::new();
    let steps = rng.gen_range(1..=2.min(*budget).max(1));
    for i in 0..steps {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let axis = if rng.gen_bool(cfg.descendant_prob) {
            "//"
        } else {
            "/"
        };
        let axis = if top && i == 0 && axis == "/" {
            "/"
        } else {
            axis
        };
        let name = fresh(next_name);
        out.push_str(axis);
        out.push_str(&name);
        if *budget > 0 && rng.gen_bool(cfg.predicate_prob) {
            let n_conj = rng.gen_range(1..=2.min(*budget).max(1));
            let mut conjuncts = Vec::new();
            for _ in 0..n_conj {
                if *budget == 0 {
                    break;
                }
                conjuncts.push(gen_conjunct(rng, next_name, budget));
            }
            if !conjuncts.is_empty() {
                out.push('[');
                out.push_str(&conjuncts.join(" and "));
                out.push(']');
            }
        }
    }
    out
}

fn gen_conjunct<R: Rng>(rng: &mut R, next_name: &mut usize, budget: &mut usize) -> String {
    *budget -= 1;
    let axis = match rng.gen_range(0..3) {
        0 => ".//",
        _ => "",
    };
    let name = fresh(next_name);
    // Optionally constrain the leaf's value; distinct constants keep the
    // sunflower property trivially satisfiable.
    let kind = rng.gen_range(0..4);
    match kind {
        0 => format!("{axis}{name}"),
        1 => {
            let c = rng.gen_range(0..1000) * 10 + 5;
            format!("{axis}{name} > {c}")
        }
        2 => {
            let s: String = (0..3)
                .map(|_| *b"ghijklm".choose(rng).unwrap() as char)
                .collect();
            format!("{axis}{name} = \"{s}\"")
        }
        _ => {
            if *budget > 0 {
                *budget -= 1;
                let inner = fresh(next_name);
                format!("{axis}{name}[{inner}]")
            } else {
                format!("{axis}{name}")
            }
        }
    }
}

/// Configuration for [`random_shared_prefix_bank`].
#[derive(Debug, Clone)]
pub struct SharedPrefixBankConfig {
    /// Number of query families; each family owns one shared prefix.
    pub families: usize,
    /// Queries generated per family.
    pub queries_per_family: usize,
    /// Length of each family's shared predicate-free prefix, in steps —
    /// including the leading `/hub` step every family has in common (so
    /// the bank diverges *below* the document root, where a naive bank
    /// cannot short-circuit on the root tag).
    pub prefix_depth: usize,
    /// When `true`, member tails are drawn from a *family-independent*
    /// name pool, so the same residual shape recurs under many distinct
    /// prefixes: canonically-equal residuals across different trie
    /// groups, the dedup target of the indexed bank's shared-residual
    /// pool. When `false` (the default) every tail name embeds its
    /// family, so residuals are family-unique.
    pub cross_family_tails: bool,
}

impl Default for SharedPrefixBankConfig {
    fn default() -> Self {
        SharedPrefixBankConfig {
            families: 8,
            queries_per_family: 4,
            prefix_depth: 3,
            cross_family_tails: false,
        }
    }
}

/// A bank of queries organized into shared-prefix families — the
/// workload the shared-prefix index (`fx_core::IndexedBank`) is built
/// for, used by both `fxbench`'s bank workloads and the indexed
/// differential suite.
#[derive(Debug, Clone)]
pub struct SharedPrefixBank {
    /// The generated queries, in bank order.
    pub queries: Vec<Query>,
    /// Per family: the XPath text of its shared prefix (`/hub/f0x1/…`).
    pub prefixes: Vec<String>,
    /// Per query: the family it belongs to.
    pub family_of: Vec<usize>,
    /// Per query: an XML fragment that satisfies the query's residual
    /// when placed under the family's prefix-end element.
    pub witnesses: Vec<String>,
    /// The configured shared-prefix depth.
    pub prefix_depth: usize,
}

impl SharedPrefixBank {
    /// Number of queries in the bank.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Bank indices of the queries in family `f`.
    pub fn members(&self, f: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.family_of[i] == f)
            .collect()
    }

    /// Builds a document that instantiates the prefixes of
    /// `active_families` and, under each, the witness fragments of that
    /// family's first `witnesses_per_family` members, padded with
    /// `noise` inert elements per active family. Queries of inactive
    /// families never see their prefix, witnessed queries match, and
    /// unwitnessed members of active families usually do not.
    pub fn document(
        &self,
        active_families: &[usize],
        witnesses_per_family: usize,
        noise: usize,
    ) -> String {
        let mut xml = String::from("<hub>");
        for &f in active_families {
            // Open the family-specific part of the prefix (after /hub).
            let steps: Vec<&str> = self.prefixes[f]
                .split('/')
                .filter(|s| !s.is_empty())
                .skip(1)
                .collect();
            for s in &steps {
                xml.push('<');
                xml.push_str(s);
                xml.push('>');
            }
            for (n, &i) in self.members(f).iter().enumerate() {
                if n < witnesses_per_family {
                    xml.push_str(&self.witnesses[i]);
                }
            }
            for _ in 0..noise {
                xml.push_str("<zz/>");
            }
            for s in steps.iter().rev() {
                xml.push_str("</");
                xml.push_str(s);
                xml.push('>');
            }
        }
        xml.push_str("</hub>");
        xml
    }

    /// [`SharedPrefixBank::document`] repeated `copies` times under one
    /// root: a byte-throughput workload of controllable size for the
    /// MB/s series (each copy re-exercises the activation/dormancy
    /// cycle of the active families).
    pub fn document_repeated(
        &self,
        active_families: &[usize],
        witnesses_per_family: usize,
        noise: usize,
        copies: usize,
    ) -> String {
        let one = self.document(active_families, witnesses_per_family, noise);
        let body = one
            .strip_prefix("<hub>")
            .and_then(|s| s.strip_suffix("</hub>"))
            .expect("document is hub-rooted");
        let mut xml = String::with_capacity(one.len() * copies.max(1) + 16);
        xml.push_str("<hub>");
        for _ in 0..copies.max(1) {
            xml.push_str(body);
        }
        xml.push_str("</hub>");
        xml
    }
}

/// Generates a bank of overlapping-prefix query families: family `i`
/// owns the predicate-free chain `/hub/f{i}x1/…` of the configured
/// depth, and its members diverge below it with varied residual shapes
/// (bare tails, name predicates, conjunctive value predicates with an
/// output step, string equality, descendant tails — plus occasional
/// *commutative twins*, members identical to their predecessor up to
/// conjunct order, which a canonical index must collapse into one
/// group). Every generated query parses, compiles in the streamable
/// fragment, supports reporting, and shares exactly `prefix_depth`
/// leading canonical steps with its family siblings (one, the `/hub`
/// root step, across families).
///
/// With [`SharedPrefixBankConfig::cross_family_tails`] set, tail names
/// drop their family component: member `j` of every family gets the
/// *same* residual shape, so a shared-residual index can compile each
/// distinct remainder once and reuse it across all families' trie
/// groups.
pub fn random_shared_prefix_bank<R: Rng>(
    rng: &mut R,
    cfg: &SharedPrefixBankConfig,
) -> SharedPrefixBank {
    let depth = cfg.prefix_depth.max(1);
    let mut queries = Vec::new();
    let mut prefixes = Vec::new();
    let mut family_of = Vec::new();
    let mut witnesses = Vec::new();
    // Cross-family mode draws one tail pool up front (member `j` of
    // every family reuses entry `j`), so equal residual shapes — random
    // constants included — recur under every family prefix.
    let shared_tails: Vec<(String, String)> = if cfg.cross_family_tails {
        let mut pool = Vec::new();
        let mut prev: Option<(String, String)> = None;
        for j in 0..cfg.queries_per_family {
            let tw = gen_tail(rng, "s", j, &prev);
            prev = Some(tw.clone());
            pool.push(tw);
        }
        pool
    } else {
        Vec::new()
    };
    for f in 0..cfg.families {
        let mut prefix = String::from("/hub");
        for l in 1..depth {
            prefix.push_str(&format!("/f{f}x{l}"));
        }
        prefixes.push(prefix.clone());
        // (tail, witness) of the previous member, for commutative twins.
        let mut prev: Option<(String, String)> = None;
        for j in 0..cfg.queries_per_family {
            // The shared pool is empty in family-unique mode, so `get`
            // doubles as the mode switch.
            let (tail, witness) = match shared_tails.get(j) {
                Some(tw) => tw.clone(),
                None => gen_tail(rng, &f.to_string(), j, &prev),
            };
            let src = format!("{prefix}{tail}");
            queries.push(parse_query(&src).expect("generated query is syntactically valid"));
            family_of.push(f);
            witnesses.push(witness.clone());
            prev = Some((tail, witness));
        }
    }
    SharedPrefixBank {
        queries,
        prefixes,
        family_of,
        witnesses,
        prefix_depth: depth,
    }
}

/// One member tail below a family prefix: a `(tail XPath, witness XML)`
/// pair with names scoped by the `fam` tag and member index `j`.
fn gen_tail<R: Rng>(
    rng: &mut R,
    fam: &str,
    j: usize,
    prev: &Option<(String, String)>,
) -> (String, String) {
    let t = format!("t{fam}x{j}");
    match rng.gen_range(0..6) {
        0 => (format!("/{t}"), format!("<{t}/>")),
        1 => (
            format!("/{t}[u{fam}x{j}]"),
            format!("<{t}><u{fam}x{j}/></{t}>"),
        ),
        2 => {
            let c = rng.gen_range(0..500) * 2 + 1;
            (
                format!("/{t}[u{fam}x{j} and v{fam}x{j} > {c}]/w{fam}x{j}"),
                format!(
                    "<{t}><u{fam}x{j}/><v{fam}x{j}>{}</v{fam}x{j}><w{fam}x{j}/></{t}>",
                    c + 1
                ),
            )
        }
        3 => (
            format!("/{t}[v{fam}x{j} = \"mid\"]"),
            format!("<{t}><v{fam}x{j}>mid</v{fam}x{j}></{t}>"),
        ),
        4 => (
            format!("//{t}[u{fam}x{j}]"),
            format!("<{t}><u{fam}x{j}/></{t}>"),
        ),
        _ => match prev {
            // A commutative twin: the previous member's tail with its
            // conjuncts swapped (when it has two).
            Some((tail, witness)) if tail.contains(" and ") => {
                let open = tail.find('[').expect("conjunctive tails have a predicate");
                let close = tail.rfind(']').expect("matching bracket");
                let (a, b) = tail[open + 1..close]
                    .split_once(" and ")
                    .expect("two conjuncts");
                (
                    format!("{}[{b} and {a}]{}", &tail[..open], &tail[close + 1..]),
                    witness.clone(),
                )
            }
            _ => (format!("/{t}"), format!("<{t}/>")),
        },
    }
}

/// The `//a1//a2…//ak` chain queries that blow up deterministic automata
/// (experiment E9).
pub fn descendant_chain(k: usize) -> Query {
    let src: String = (0..k).map(|i| format!("//s{i}")).collect();
    parse_query(&src).expect("chain query is valid")
}

/// A star query `/root[c0 and c1 and … and c(k-1)]` with frontier size k.
pub fn star(k: usize) -> Query {
    let conj: Vec<String> = (0..k).map(|i| format!("c{i}")).collect();
    parse_query(&format!("/root[{}]", conj.join(" and "))).expect("star query is valid")
}

/// A balanced binary twig of the given depth; `FS` grows linearly with
/// depth while `|Q|` grows exponentially.
pub fn balanced_twig(depth: usize) -> Query {
    fn node(prefix: &str, depth: usize) -> String {
        if depth == 0 {
            prefix.to_string()
        } else {
            format!(
                "{prefix}[{} and {}]",
                node(&format!("{prefix}l"), depth - 1),
                node(&format!("{prefix}r"), depth - 1)
            )
        }
    }
    parse_query(&format!("/{}", node("q", depth))).expect("twig query is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::Evaluator;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_queries_are_redundancy_free() {
        let mut rng = SmallRng::seed_from_u64(42);
        let cfg = RandomQueryConfig::default();
        let mut checked = 0;
        for _ in 0..60 {
            let q = random_redundancy_free(&mut rng, &cfg);
            let violations = fx_analysis::redundancy_free(&q);
            assert!(
                violations.is_empty(),
                "{}: {violations:?}",
                fx_xpath::to_xpath(&q)
            );
            checked += 1;
        }
        assert_eq!(checked, 60);
    }

    #[test]
    fn random_queries_are_deterministic() {
        let cfg = RandomQueryConfig::default();
        let a = random_redundancy_free(&mut SmallRng::seed_from_u64(1), &cfg);
        let b = random_redundancy_free(&mut SmallRng::seed_from_u64(1), &cfg);
        assert_eq!(fx_xpath::to_xpath(&a), fx_xpath::to_xpath(&b));
    }

    #[test]
    fn chain_star_twig_shapes() {
        assert_eq!(descendant_chain(3).len(), 4);
        let s = star(5);
        assert_eq!(fx_analysis::frontier_size(&s), 5);
        let t = balanced_twig(2);
        assert_eq!(t.len(), 1 + 7); // root + complete binary tree of 7
        assert!(fx_analysis::frontier_size(&t) < t.len());
    }

    #[test]
    fn twigs_are_redundancy_free() {
        let t = balanced_twig(3);
        assert!(fx_analysis::redundancy_free(&t).is_empty());
        assert!(fx_analysis::path_consistency_free(&t));
        assert!(fx_analysis::closure_free(&t));
    }

    #[test]
    fn shared_prefix_bank_parses_compiles_and_reports() {
        let mut rng = SmallRng::seed_from_u64(0x5A11);
        let cfg = SharedPrefixBankConfig {
            families: 6,
            queries_per_family: 5,
            prefix_depth: 3,
            cross_family_tails: false,
        };
        let bank = random_shared_prefix_bank(&mut rng, &cfg);
        assert_eq!(bank.len(), 30);
        for (i, q) in bank.queries.iter().enumerate() {
            // Every query is in the streamable fragment…
            let compiled = fx_core::CompiledQuery::compile(q)
                .unwrap_or_else(|e| panic!("query #{i} uncompilable: {e}"));
            // …and has an element output node (usable in Select mode).
            compiled
                .reporting_supported()
                .unwrap_or_else(|e| panic!("query #{i} not reportable: {e}"));
        }
    }

    #[test]
    fn shared_prefix_bank_shares_the_intended_depth() {
        let mut rng = SmallRng::seed_from_u64(0x5A12);
        let cfg = SharedPrefixBankConfig {
            families: 4,
            queries_per_family: 6,
            prefix_depth: 4,
            cross_family_tails: false,
        };
        let bank = random_shared_prefix_bank(&mut rng, &cfg);
        for i in 0..bank.len() {
            for j in (i + 1)..bank.len() {
                let d =
                    fx_xpath::canonical::shared_prefix_depth(&bank.queries[i], &bank.queries[j]);
                if bank.family_of[i] == bank.family_of[j] {
                    assert_eq!(
                        d, cfg.prefix_depth,
                        "family members #{i} and #{j} must share the whole prefix"
                    );
                } else {
                    assert_eq!(d, 1, "cross-family pairs share only /hub (#{i}, #{j})");
                }
            }
        }
        // The prefix steps themselves are predicate-free and sharable.
        for q in &bank.queries {
            assert!(fx_xpath::canonical::sharable_prefix_len(q) >= cfg.prefix_depth);
        }
    }

    #[test]
    fn cross_family_tails_repeat_residuals_across_trie_groups() {
        let mut rng = SmallRng::seed_from_u64(0x5A14);
        let cfg = SharedPrefixBankConfig {
            families: 6,
            queries_per_family: 5,
            prefix_depth: 3,
            cross_family_tails: true,
        };
        let bank = random_shared_prefix_bank(&mut rng, &cfg);
        // Member j of every family carries the same canonical residual
        // form (names, shapes and random constants included)…
        use fx_xpath::canonical::{canonical_residual_key, sharable_prefix_len};
        let rkey = |q: &Query| canonical_residual_key(q, sharable_prefix_len(q));
        for j in 0..cfg.queries_per_family {
            let first = rkey(&bank.queries[j]);
            for f in 1..cfg.families {
                let i = f * cfg.queries_per_family + j;
                assert_eq!(rkey(&bank.queries[i]), first, "member {j} of family {f}");
            }
        }
        // …while the full queries stay family-distinct (different
        // prefixes), so the indexed bank sees many groups but pools few
        // compiled residuals.
        let stats = fx_core::IndexedBank::new(&bank.queries)
            .unwrap()
            .space_stats();
        assert!(stats.groups > cfg.queries_per_family);
        assert!(
            stats.residual_pool <= cfg.queries_per_family,
            "{} forms for {} groups",
            stats.residual_pool,
            stats.groups
        );
        // And every query still parses/compiles/reports like the
        // family-unique variant.
        for (i, q) in bank.queries.iter().enumerate() {
            fx_core::CompiledQuery::compile(q)
                .unwrap_or_else(|e| panic!("query #{i} uncompilable: {e}"))
                .reporting_supported()
                .unwrap_or_else(|e| panic!("query #{i} not reportable: {e}"));
        }
    }

    #[test]
    fn document_repeated_replicates_the_body() {
        let mut rng = SmallRng::seed_from_u64(7);
        let bank = random_shared_prefix_bank(
            &mut rng,
            &SharedPrefixBankConfig {
                families: 3,
                queries_per_family: 2,
                prefix_depth: 2,
                cross_family_tails: false,
            },
        );
        let one = bank.document(&[0], 1, 2);
        let four = bank.document_repeated(&[0], 1, 2, 4);
        assert!(
            fx_xml::parse(&four).is_ok(),
            "repeated doc stays well-formed"
        );
        // Four copies of the body under one root.
        let body = one
            .strip_prefix("<hub>")
            .unwrap()
            .strip_suffix("</hub>")
            .unwrap();
        assert_eq!(four.matches(body).count(), 4);
    }

    #[test]
    fn shared_prefix_documents_witness_the_intended_queries() {
        let mut rng = SmallRng::seed_from_u64(0x5A13);
        let cfg = SharedPrefixBankConfig::default();
        let bank = random_shared_prefix_bank(&mut rng, &cfg);
        let xml = bank.document(&[0, 2], 2, 3);
        let events = fx_xml::parse(&xml).unwrap();
        let mut mf = fx_core::MultiFilter::new(&bank.queries).unwrap();
        let symbols = std::sync::Arc::clone(mf.symbols());
        let (mut attrs, mut names) = (fx_xml::AttrBuf::new(), fx_xml::SymCache::new());
        for e in &events {
            let ev = attrs.sym_event(&mut names, &symbols, e);
            mf.event(ev, fx_xml::Span::EMPTY, &mut |_: fx_core::Match| {});
        }
        let results = mf.results();
        let mut matched = 0usize;
        for (i, r) in results.iter().enumerate() {
            let f = bank.family_of[i];
            let witnessed =
                (f == 0 || f == 2) && bank.members(f).iter().position(|&m| m == i).unwrap() < 2;
            if witnessed {
                assert_eq!(*r, Some(true), "witnessed query #{i} must match");
                matched += 1;
            }
            if f != 0 && f != 2 {
                assert_eq!(*r, Some(false), "inactive family query #{i} must not match");
            }
        }
        assert!(matched >= 4, "expected several witnessed matches");
    }
}
