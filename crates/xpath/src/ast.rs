//! The query tree model of §3.1.2: every node has an `AXIS`, a `NTEST`, an
//! optional `SUCCESSOR` child, and an optional `PREDICATE` expression tree
//! whose leaves point at the node's *predicate children*.

use crate::value::Value;
use std::fmt;

/// Index of a node within its [`Query`] arena. The root is `QueryNodeId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryNodeId(pub u32);

impl QueryNodeId {
    /// The query root (annotated `$` in the paper's figures).
    pub const ROOT: QueryNodeId = QueryNodeId(0);

    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// `AXIS(u)`: child, descendant, or attribute (§3.1.2). The attribute axis is
/// handled as a special case of child throughout, per the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — child.
    Child,
    /// `//` (or `.//` in relative position) — descendant.
    Descendant,
    /// `@` — attribute.
    Attribute,
}

/// `NTEST(u)`: a name from `N` or the wildcard `*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A literal name test.
    Name(String),
    /// The wildcard `*`.
    Wildcard,
}

impl NodeTest {
    /// Definition 3.1: a name `n` passes node test `N` iff `N = n` or `N = *`.
    pub fn passes(&self, name: &str) -> bool {
        match self {
            NodeTest::Wildcard => true,
            NodeTest::Name(n) => n == name,
        }
    }

    /// True for [`NodeTest::Wildcard`].
    pub fn is_wildcard(&self) -> bool {
        matches!(self, NodeTest::Wildcard)
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::Wildcard => f.write_str("*"),
        }
    }
}

/// Comparison operators (`compop` in Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompOp {
    /// All six operators.
    pub const ALL: [CompOp; 6] = [
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Lt,
        CompOp::Le,
        CompOp::Gt,
        CompOp::Ge,
    ];

    /// Whether the operator imposes a numeric ordering (everything except
    /// `=`/`!=`, which compare by type).
    pub fn is_ordering(self) -> bool {
        !matches!(self, CompOp::Eq | CompOp::Ne)
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators (`arithop` in Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `idiv`
    IDiv,
    /// `mod`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::IDiv => "idiv",
            ArithOp::Mod => "mod",
        })
    }
}

/// Basic XPath functions on atomic arguments (`funcop` in Fig. 1; a subset
/// of \[24\] — `position()` and `last()` are excluded by the grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// `fn:contains(s, t)` — boolean.
    Contains,
    /// `fn:starts-with(s, t)` — boolean.
    StartsWith,
    /// `fn:ends-with(s, t)` — boolean.
    EndsWith,
    /// `fn:matches(s, re)` — boolean (regex subset, see `regexlite`).
    Matches,
    /// `fn:string-length(s)` — number.
    StringLength,
    /// `fn:concat(s, t, …)` — string.
    Concat,
    /// `fn:substring(s, start[, len])` — string (1-based positions).
    Substring,
    /// `fn:number(v)` — number.
    Number,
    /// `fn:string(v)` — string.
    StringFn,
    /// `fn:floor(n)` — number.
    Floor,
    /// `fn:ceiling(n)` — number.
    Ceiling,
    /// `fn:round(n)` — number.
    Round,
    /// `fn:abs(n)` — number.
    Abs,
    /// `fn:upper-case(s)` — string.
    UpperCase,
    /// `fn:lower-case(s)` — string.
    LowerCase,
    /// `fn:normalize-space(s)` — string.
    NormalizeSpace,
    /// `fn:true()` — boolean.
    True,
    /// `fn:false()` — boolean.
    False,
}

impl Func {
    /// Looks a function up by its (unprefixed) name.
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name {
            "contains" => Func::Contains,
            "starts-with" => Func::StartsWith,
            "ends-with" => Func::EndsWith,
            "matches" => Func::Matches,
            "string-length" => Func::StringLength,
            "concat" => Func::Concat,
            "substring" => Func::Substring,
            "number" => Func::Number,
            "string" => Func::StringFn,
            "floor" => Func::Floor,
            "ceiling" => Func::Ceiling,
            "round" => Func::Round,
            "abs" => Func::Abs,
            "upper-case" => Func::UpperCase,
            "lower-case" => Func::LowerCase,
            "normalize-space" => Func::NormalizeSpace,
            "true" => Func::True,
            "false" => Func::False,
            _ => return None,
        })
    }

    /// The function's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Func::Contains => "contains",
            Func::StartsWith => "starts-with",
            Func::EndsWith => "ends-with",
            Func::Matches => "matches",
            Func::StringLength => "string-length",
            Func::Concat => "concat",
            Func::Substring => "substring",
            Func::Number => "number",
            Func::StringFn => "string",
            Func::Floor => "floor",
            Func::Ceiling => "ceiling",
            Func::Round => "round",
            Func::Abs => "abs",
            Func::UpperCase => "upper-case",
            Func::LowerCase => "lower-case",
            Func::NormalizeSpace => "normalize-space",
            Func::True => "true",
            Func::False => "false",
        }
    }

    /// Whether the function's *output* is boolean (relevant to the atomic
    /// predicate classification, Def. 5.3).
    pub fn output_is_boolean(self) -> bool {
        matches!(
            self,
            Func::Contains
                | Func::StartsWith
                | Func::EndsWith
                | Func::Matches
                | Func::True
                | Func::False
        )
    }

    /// Accepted argument-count range.
    pub fn arity(self) -> (usize, usize) {
        match self {
            Func::True | Func::False => (0, 0),
            Func::Concat => (2, usize::MAX),
            Func::Substring => (2, 3),
            Func::Contains | Func::StartsWith | Func::EndsWith | Func::Matches => (2, 2),
            _ => (1, 1),
        }
    }
}

/// A predicate expression tree (§3.1.2). Internal nodes are logical,
/// comparison, arithmetic, or functional operators; leaves are constants or
/// pointers to predicate children of the owning query node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant from `V`.
    Const(Value),
    /// A pointer to a predicate child of the owning query node. Evaluates to
    /// the sequence of data values selected by that child's succession leaf
    /// (Def. 3.5 part 2).
    Var(QueryNodeId),
    /// A comparison — boolean output, non-boolean arguments, existential
    /// semantics (Def. 3.5 part 4).
    Comp(CompOp, Box<Expr>, Box<Expr>),
    /// An arithmetic operator — non-boolean in and out (Def. 3.5 part 5).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical conjunction — boolean arguments via EBV (Def. 3.5 part 3).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// A function call.
    Call(Func, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor: `lhs op rhs` comparison.
    pub fn comp(op: CompOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Comp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor: conjunction.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::And(Box::new(lhs), Box::new(rhs))
    }

    /// All `Var` pointers in this expression, in-order.
    pub fn vars(&self) -> Vec<QueryNodeId> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Var(v) = e {
                out.push(*v);
            }
        });
        out
    }

    /// Visits every sub-expression, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Neg(e) | Expr::Not(e) => e.visit(f),
            Expr::Comp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }

    /// A copy of this expression with every `Var` pointer sent through
    /// `f` — what moving a predicate onto a renumbered copy of its query
    /// node needs. Conjunctions are rebuilt through [`Expr::and`].
    pub fn map_vars(&self, f: impl Fn(QueryNodeId) -> QueryNodeId + Copy) -> Expr {
        let sub = |e: &Expr| Box::new(e.map_vars(f));
        match self {
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Var(v) => Expr::Var(f(*v)),
            Expr::Comp(op, a, b) => Expr::Comp(*op, sub(a), sub(b)),
            Expr::Arith(op, a, b) => Expr::Arith(*op, sub(a), sub(b)),
            Expr::Neg(a) => Expr::Neg(sub(a)),
            Expr::And(a, b) => Expr::and(a.map_vars(f), b.map_vars(f)),
            Expr::Or(a, b) => Expr::Or(sub(a), sub(b)),
            Expr::Not(a) => Expr::Not(sub(a)),
            Expr::Call(func, args) => {
                Expr::Call(*func, args.iter().map(|a| a.map_vars(f)).collect())
            }
        }
    }

    /// Whether this node is an operator *on boolean arguments* (the logical
    /// operators) — the ops banned inside atomic predicates (Def. 5.3 (1)).
    pub fn is_boolean_operator(&self) -> bool {
        matches!(self, Expr::And(..) | Expr::Or(..) | Expr::Not(..))
    }

    /// Whether this node's *output* is boolean (Def. 5.3 (2)).
    pub fn output_is_boolean(&self) -> bool {
        match self {
            Expr::Comp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => true,
            Expr::Call(f, _) => f.output_is_boolean(),
            Expr::Const(Value::Bool(_)) => true,
            _ => false,
        }
    }

    /// Splits a conjunction into its top-level conjuncts: `a and b and c`
    /// yields `[a, b, c]`; a non-`And` expression yields itself.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

/// A query node (§3.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryNode {
    /// `AXIS(u)` — `None` only for the root.
    pub axis: Option<Axis>,
    /// `NTEST(u)` — `None` only for the root.
    pub ntest: Option<NodeTest>,
    /// Parent node, `None` for the root.
    pub parent: Option<QueryNodeId>,
    /// All children in syntactic order (predicate children then successor,
    /// as parsed).
    pub children: Vec<QueryNodeId>,
    /// `SUCCESSOR(u)` — empty or one of the children.
    pub successor: Option<QueryNodeId>,
    /// `PREDICATE(u)` — empty or an expression tree.
    pub predicate: Option<Expr>,
}

/// An XPath query as a rooted tree (arena-allocated).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    nodes: Vec<QueryNode>,
}

impl Query {
    /// Creates a query containing only the root node.
    pub fn new() -> Self {
        Query {
            nodes: vec![QueryNode {
                axis: None,
                ntest: None,
                parent: None,
                children: Vec::new(),
                successor: None,
                predicate: None,
            }],
        }
    }

    /// Adds a node under `parent`, returning its id. The caller decides
    /// afterwards whether it is the successor (via [`Query::set_successor`])
    /// or a predicate child (by pointing a predicate `Var` at it).
    pub fn add_node(&mut self, parent: QueryNodeId, axis: Axis, ntest: NodeTest) -> QueryNodeId {
        let id = QueryNodeId(self.nodes.len() as u32);
        self.nodes.push(QueryNode {
            axis: Some(axis),
            ntest: Some(ntest),
            parent: Some(parent),
            children: Vec::new(),
            successor: None,
            predicate: None,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Adds a named child-axis node (test convenience).
    pub fn add_child(&mut self, parent: QueryNodeId, name: &str) -> QueryNodeId {
        self.add_node(parent, Axis::Child, NodeTest::Name(name.to_string()))
    }

    /// Adds a named descendant-axis node (test convenience).
    pub fn add_descendant(&mut self, parent: QueryNodeId, name: &str) -> QueryNodeId {
        self.add_node(parent, Axis::Descendant, NodeTest::Name(name.to_string()))
    }

    /// Marks `child` as the successor of `parent`.
    pub fn set_successor(&mut self, parent: QueryNodeId, child: QueryNodeId) {
        debug_assert_eq!(self.nodes[child.index()].parent, Some(parent));
        self.nodes[parent.index()].successor = Some(child);
    }

    /// Installs the predicate of `node`.
    pub fn set_predicate(&mut self, node: QueryNodeId, predicate: Expr) {
        self.nodes[node.index()].predicate = Some(predicate);
    }

    /// Number of nodes `|Q|` (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the query is just the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The root id.
    pub fn root(&self) -> QueryNodeId {
        QueryNodeId::ROOT
    }

    /// Immutable access to a node.
    pub fn node(&self, id: QueryNodeId) -> &QueryNode {
        &self.nodes[id.index()]
    }

    /// `AXIS(u)`; `None` for the root.
    pub fn axis(&self, id: QueryNodeId) -> Option<Axis> {
        self.node(id).axis
    }

    /// `NTEST(u)`; `None` for the root.
    pub fn ntest(&self, id: QueryNodeId) -> Option<&NodeTest> {
        self.node(id).ntest.as_ref()
    }

    /// The parent, `None` for the root.
    pub fn parent(&self, id: QueryNodeId) -> Option<QueryNodeId> {
        self.node(id).parent
    }

    /// Children in syntactic order.
    pub fn children(&self, id: QueryNodeId) -> &[QueryNodeId] {
        &self.node(id).children
    }

    /// `SUCCESSOR(u)`.
    pub fn successor(&self, id: QueryNodeId) -> Option<QueryNodeId> {
        self.node(id).successor
    }

    /// `PREDICATE(u)`.
    pub fn predicate(&self, id: QueryNodeId) -> Option<&Expr> {
        self.node(id).predicate.as_ref()
    }

    /// The predicate children of `u`: children that are not the successor
    /// (§3.1.2).
    pub fn predicate_children(&self, id: QueryNodeId) -> Vec<QueryNodeId> {
        let succ = self.successor(id);
        self.children(id)
            .iter()
            .copied()
            .filter(|&c| Some(c) != succ)
            .collect()
    }

    /// `LEAF(u)`: the succession leaf reached by repeatedly following
    /// successors from `u` (§3.1.2).
    pub fn succession_leaf(&self, mut id: QueryNodeId) -> QueryNodeId {
        while let Some(s) = self.successor(id) {
            id = s;
        }
        id
    }

    /// `OUT(Q)`: the succession leaf of the root — the query output node.
    pub fn output_node(&self) -> QueryNodeId {
        self.succession_leaf(self.root())
    }

    /// The *succession root* of `u`: the first non-successor node reached by
    /// walking up while `u` is its parent's successor (§3.1.2 / Def. 5.6).
    pub fn succession_root(&self, mut id: QueryNodeId) -> QueryNodeId {
        while let Some(p) = self.parent(id) {
            if self.successor(p) == Some(id) {
                id = p;
            } else {
                break;
            }
        }
        id
    }

    /// True if `u` is a succession root (the query root or a predicate child
    /// of its parent).
    pub fn is_succession_root(&self, id: QueryNodeId) -> bool {
        match self.parent(id) {
            None => true,
            Some(p) => self.successor(p) != Some(id),
        }
    }

    /// True if the node has no children (a tree leaf).
    pub fn is_leaf(&self, id: QueryNodeId) -> bool {
        self.children(id).is_empty()
    }

    /// All node ids, root first (pre-order by construction for parsed
    /// queries; use [`Query::preorder`] when order matters).
    pub fn all_nodes(&self) -> impl Iterator<Item = QueryNodeId> {
        (0..self.nodes.len() as u32).map(QueryNodeId)
    }

    /// Pre-order traversal of the subtree rooted at `id`.
    pub fn preorder(&self, id: QueryNodeId) -> Vec<QueryNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().rev());
        }
        out
    }

    /// The sequence `PATH(u)`: nodes from the root down to `u`, inclusive.
    pub fn path(&self, id: QueryNodeId) -> Vec<QueryNodeId> {
        let mut p = vec![id];
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            p.push(parent);
            cur = parent;
        }
        p.reverse();
        p
    }

    /// `DEPTH(u) = |PATH(u)|` (§6.3).
    pub fn depth(&self, id: QueryNodeId) -> usize {
        self.path(id).len()
    }

    /// True if `anc` is a proper ancestor of `id`.
    pub fn is_ancestor(&self, anc: QueryNodeId, id: QueryNodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// The length `h` of the longest chain of wildcard-test nodes along a
    /// single path (used by the canonical-document construction, §6.4.1).
    pub fn longest_wildcard_chain(&self) -> usize {
        let mut best = 0usize;
        for id in self.all_nodes() {
            if !matches!(self.ntest(id), Some(NodeTest::Wildcard)) {
                continue;
            }
            let mut len = 1usize;
            let mut cur = self.parent(id);
            while let Some(p) = cur {
                if matches!(self.ntest(p), Some(NodeTest::Wildcard)) {
                    len += 1;
                    cur = self.parent(p);
                } else {
                    break;
                }
            }
            best = best.max(len);
        }
        best
    }

    /// Structural sanity check of the §3.1.2 invariants: the successor is a
    /// child; every predicate child is pointed to by exactly one predicate
    /// leaf; `Var` pointers target children of the owning node.
    pub fn validate(&self) -> Result<(), String> {
        for id in self.all_nodes() {
            let node = self.node(id);
            if let Some(s) = node.successor {
                if self.parent(s) != Some(id) {
                    return Err(format!("successor of {id} is not its child"));
                }
            }
            let vars: Vec<QueryNodeId> = node
                .predicate
                .as_ref()
                .map(|p| p.vars())
                .unwrap_or_default();
            for &v in &vars {
                if self.parent(v) != Some(id) {
                    return Err(format!("predicate of {id} points at non-child {v}"));
                }
                if Some(v) == node.successor {
                    return Err(format!("predicate of {id} points at the successor {v}"));
                }
            }
            let mut sorted = vars.clone();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            if sorted.len() != before {
                return Err(format!(
                    "two predicate leaves of {id} point at the same child"
                ));
            }
            for pc in self.predicate_children(id) {
                if !vars.contains(&pc) {
                    return Err(format!(
                        "child {pc} of {id} is neither successor nor pointed to by the predicate"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for Query {
    fn default() -> Self {
        Query::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Fig. 2 query tree `/a[c[.//e and f] and b > 5]/b` by hand.
    fn fig2() -> (Query, QueryNodeId, QueryNodeId, QueryNodeId) {
        let mut q = Query::new();
        let a = q.add_child(QueryNodeId::ROOT, "a");
        q.set_successor(QueryNodeId::ROOT, a);
        let c = q.add_child(a, "c");
        let b1 = q.add_child(a, "b");
        let b2 = q.add_child(a, "b");
        q.set_successor(a, b2);
        let e = q.add_descendant(c, "e");
        let f = q.add_child(c, "f");
        q.set_predicate(c, Expr::and(Expr::Var(e), Expr::Var(f)));
        q.set_predicate(
            a,
            Expr::and(
                Expr::Var(c),
                Expr::comp(CompOp::Gt, Expr::Var(b1), Expr::Const(Value::Number(5.0))),
            ),
        );
        (q, a, b2, c)
    }

    #[test]
    fn fig2_structure() {
        let (q, a, b2, c) = fig2();
        assert!(q.validate().is_ok());
        assert_eq!(q.len(), 7);
        assert_eq!(q.successor(QueryNodeId::ROOT), Some(a));
        assert_eq!(q.successor(a), Some(b2));
        assert_eq!(q.output_node(), b2);
        assert_eq!(q.predicate_children(a).len(), 2);
        assert_eq!(q.predicate_children(c).len(), 2);
    }

    #[test]
    fn map_vars_renumbers_pointers_under_every_operator() {
        let var = |i: u32| Expr::Var(QueryNodeId(i));
        let tree = |v: &dyn Fn(u32) -> Expr| {
            let sum = Expr::Arith(
                ArithOp::Add,
                Box::new(v(1)),
                Box::new(Expr::Neg(Box::new(v(2)))),
            );
            let cmp = Expr::comp(CompOp::Gt, sum, Expr::Const(Value::Number(5.0)));
            let call = Expr::Call(Func::Contains, vec![v(3), Expr::Const(Value::Number(1.0))]);
            let either = Expr::Or(Box::new(call), Box::new(Expr::Not(Box::new(v(4)))));
            Expr::and(cmp, Expr::and(either, v(5)))
        };
        let shifted = tree(&var).map_vars(|v| QueryNodeId(v.0 + 10));
        assert_eq!(shifted, tree(&|i| var(i + 10)));
        assert_eq!(shifted.vars().len(), 5);
    }

    #[test]
    fn succession_roots_and_leaves() {
        let (q, a, b2, c) = fig2();
        // The root and predicate children are succession roots.
        assert!(q.is_succession_root(QueryNodeId::ROOT));
        assert!(q.is_succession_root(c));
        assert!(!q.is_succession_root(a));
        assert!(!q.is_succession_root(b2));
        assert_eq!(q.succession_leaf(QueryNodeId::ROOT), b2);
        assert_eq!(q.succession_root(b2), QueryNodeId::ROOT);
        assert_eq!(q.succession_root(a), QueryNodeId::ROOT);
        assert_eq!(q.succession_root(c), c);
    }

    #[test]
    fn validate_rejects_dangling_predicate_child() {
        let mut q = Query::new();
        let a = q.add_child(QueryNodeId::ROOT, "a");
        q.set_successor(QueryNodeId::ROOT, a);
        let _orphan = q.add_child(a, "x"); // neither successor nor in predicate
        assert!(q.validate().is_err());
    }

    #[test]
    fn validate_rejects_double_pointer() {
        let mut q = Query::new();
        let a = q.add_child(QueryNodeId::ROOT, "a");
        q.set_successor(QueryNodeId::ROOT, a);
        let b = q.add_child(a, "b");
        q.set_predicate(a, Expr::and(Expr::Var(b), Expr::Var(b)));
        assert!(q.validate().is_err());
    }

    #[test]
    fn wildcard_chain_length() {
        let mut q = Query::new();
        let s1 = q.add_node(QueryNodeId::ROOT, Axis::Child, NodeTest::Wildcard);
        q.set_successor(QueryNodeId::ROOT, s1);
        let s2 = q.add_node(s1, Axis::Child, NodeTest::Wildcard);
        q.set_successor(s1, s2);
        let a = q.add_child(s2, "a");
        q.set_successor(s2, a);
        assert_eq!(q.longest_wildcard_chain(), 2);
    }

    #[test]
    fn expr_classifications() {
        let cmp = Expr::comp(
            CompOp::Gt,
            Expr::Var(QueryNodeId(1)),
            Expr::Const(Value::Number(5.0)),
        );
        assert!(cmp.output_is_boolean());
        assert!(!cmp.is_boolean_operator());
        let conj = Expr::and(cmp.clone(), cmp.clone());
        assert!(conj.is_boolean_operator());
        assert_eq!(conj.conjuncts().len(), 2);
        let nested = Expr::and(conj, cmp);
        assert_eq!(nested.conjuncts().len(), 3);
    }

    #[test]
    fn depth_and_path() {
        let (q, a, _, c) = fig2();
        assert_eq!(q.depth(QueryNodeId::ROOT), 1);
        assert_eq!(q.depth(a), 2);
        assert_eq!(q.depth(c), 3);
        assert_eq!(q.path(c), vec![QueryNodeId::ROOT, a, c]);
        assert!(q.is_ancestor(a, c));
        assert!(!q.is_ancestor(c, a));
    }
}
