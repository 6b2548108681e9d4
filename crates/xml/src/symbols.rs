//! QName symbol interning: the zero-copy event hot path's currency.
//!
//! Per-event `String` allocation and string comparison dominate the
//! wall-clock of the streaming filters, even though the paper prices
//! memory in bits (§3.1.4): every `startElement(n)` used to allocate an
//! owned name and every frontier record compared it byte-by-byte. A
//! [`Symbols`] table maps each distinct element/attribute name to a
//! dense `u32` [`Sym`] once, so the parser can stamp events with
//! integer names ([`SymEvent`]) and compiled queries can resolve their
//! node tests to integers at compile time — turning the per-event,
//! per-record node-test check into a single integer compare.
//!
//! # Invariants
//!
//! * **Ids are stable for the lifetime of the table**: `intern(n)`
//!   returns the same [`Sym`] for the same name forever, and
//!   [`Symbols::resolve`] inverts it forever.
//! * **Ids are never recycled**: the table only grows; no operation
//!   removes a name or reassigns its id. A table shared between a
//!   parser, a compiled query bank, and any number of sessions
//!   therefore never invalidates anyone's cached [`Sym`]s.
//! * **Equal ids ⇔ equal names, within one table.** Syms from
//!   *different* tables are meaningless to compare; every consumer
//!   (filter, bank, engine) pins the `Arc<Symbols>` it was compiled
//!   against and converts incoming string-named events through that
//!   same table.
//! * [`Sym::UNKNOWN`] is never returned by [`Symbols::intern`]: it is
//!   the reserved "name absent from this table" code produced by
//!   [`SymCache::lookup`], and compares unequal to every
//!   interned sym (so a document name no query mentions simply fails
//!   every named node test, without growing the table).
//!
//! The table is internally synchronized (`RwLock`); interning an
//! already-known name takes a read lock only, and a lookup-only
//! resolver probes the table's shared frozen view ([`Symbols::snapshot`],
//! a flat open-addressed table) without any lock, so concurrent
//! sessions sharing one table do not serialize on the hot path.
//!
//! Because ids are never recycled, the table's footprint grows with
//! every *distinct* name ever interned. Long-lived consumers that
//! stream adversarial name cardinality should resolve document names
//! read-only (`StreamingParser::lookup_only`, [`SymCache::lookup`])
//! so only compiled query vocabulary ever lands in the table — the
//! engine's reader path does exactly this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// An interned name: a dense integer id issued by a [`Symbols`] table.
///
/// Compare syms only against syms from the same table (see the module
/// invariants). `Sym`s order by interning order, which is meaningless
/// but stable — handy for dense per-sym side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The reserved "not in this table" code (see
    /// [`SymCache::lookup`]). Never issued by
    /// [`Symbols::intern`]; unequal to every interned sym.
    pub const UNKNOWN: Sym = Sym(u32::MAX);

    /// The raw id, for dense side tables indexed by sym.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A grow-only, internally-synchronized name-interning table (see the
/// module docs for the id-stability invariants).
///
/// Share one table per engine/bank via `Arc<Symbols>`: the parser
/// interns document names into it, compiled queries resolve their node
/// tests against it, and equal strings meet as equal integers on the
/// hot path.
#[derive(Debug, Default)]
pub struct Symbols {
    /// The live table, in the flat layout its views copy.
    inner: RwLock<SymbolsSnapshot>,
    /// `inner.len()`, published lock-free. Stored (`Release`)
    /// under the write lock, after the name is in place; an `Acquire`
    /// load that reads `n` therefore sees a table of at least `n` names.
    len: AtomicUsize,
    /// The shared frozen view, rebuilt by [`Symbols::snapshot`] only
    /// when the length moved since it was built.
    view: Mutex<Arc<SymbolsSnapshot>>,
}

impl Symbols {
    /// An empty table.
    pub fn new() -> Symbols {
        Symbols::default()
    }

    /// Returns the sym for `name`, interning it on first sight.
    ///
    /// Known names take a read lock only. Ids are issued densely in
    /// interning order and never recycled.
    pub fn intern(&self, name: &str) -> Sym {
        if let Some(s) = self.inner.read().expect("symbols lock").lookup(name) {
            return s;
        }
        let mut inner = self.inner.write().expect("symbols lock");
        if let Some(s) = inner.lookup(name) {
            return s; // raced with another writer
        }
        let s = inner.push(name);
        self.len.store(inner.len(), Ordering::Release);
        s
    }

    /// The name behind `sym` (a clone; resolution is for diagnostics
    /// and [`SymEvent::to_owned`], not the hot path).
    ///
    /// Panics on [`Sym::UNKNOWN`] or a sym from another table.
    pub fn resolve(&self, sym: Sym) -> String {
        self.inner.read().expect("symbols lock").names[sym.index()].clone()
    }

    /// Number of interned names (one atomic load, no lock).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's **shared frozen view**: an immutable copy of its
    /// contents whose lookups take no lock at all, cached inside the
    /// table and rebuilt — `O(table size)` — only when a name was
    /// interned since it was built, so every caller between two growths
    /// gets the *same* `Arc`, however many workers ask. Ids are stable,
    /// so what a view resolves stays valid forever; names interned after
    /// it was built resolve to [`Sym::UNKNOWN`] in it. [`SymCache`] is
    /// the holder, and says when it asks again.
    pub fn snapshot(&self) -> Arc<SymbolsSnapshot> {
        let mut view = self.view.lock().expect("symbols view lock");
        if view.len() != self.len() {
            *view = Arc::new(self.inner.read().expect("symbols lock").clone());
        }
        Arc::clone(&view)
    }
}

/// A frozen, read-only view of a [`Symbols`] table at one instant
/// (handed out, shared, by [`Symbols::snapshot`]): any number of worker
/// threads resolve names against it with **lock-free** lookups.
///
/// A lookup is one probe sequence in a flat open-addressed table —
/// power-of-two sized, at most half full, linear probing — whose
/// entries hold a name's first and last eight bytes, its length and its
/// sym. A name of up to 16 bytes is entirely in those two words, so
/// comparing it is two word compares and a length compare; a longer
/// one also compares its text in the view's name list. Every length
/// takes the same path, with no side map. The live table keeps the same
/// layout under its lock, so taking a view is a copy, not a rehash.
///
/// # Invariants
///
/// * Every `(name, sym)` pair in the snapshot is permanently valid
///   against the source table: ids are never recycled, so a snapshot
///   can never return a sym the live table disagrees with.
/// * A snapshot never sees names interned after it was built — they
///   resolve to [`Sym::UNKNOWN`], the same collapse a lookup-only
///   parser applies to out-of-vocabulary document names — and is
///   current exactly when its [`SymbolsSnapshot::len`] equals the
///   table's (ids are dense, so equal lengths mean equal contents).
/// * Building one is O(table size) and happens at most once per table
///   growth that somebody looks at, never on the per-event hot path.
#[derive(Debug, Clone)]
pub struct SymbolsSnapshot {
    /// The open-addressed table: `2^k ≥ 2 · names.len()` entries.
    entries: Vec<Entry>,
    /// `64 - k`: a hash's top `k` bits are its home entry.
    shift: u32,
    names: Vec<String>,
}

/// One [`SymbolsSnapshot`] entry: a name's [`key_words`], its length
/// (mod 2³²: past 16 bytes the text compare decides) and its sym, which
/// is [`Sym::UNKNOWN`] in an empty entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    words: (u64, u64),
    len: u32,
    sym: Sym,
}

/// The little-endian word `b[at..at + 8]`.
#[inline]
fn word(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// A name's two key words: its first and its last eight bytes as
/// little-endian words, overlapping below 16 bytes; a name under eight
/// bytes is one zero-padded word, twice (read in two overlapping loads,
/// which OR identical bits). With the length they spell any name of up
/// to 16 bytes exactly.
#[inline]
fn key_words(b: &[u8]) -> (u64, u64) {
    let n = b.len();
    let half = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
    let quarter = |at: usize| u16::from_le_bytes(b[at..at + 2].try_into().expect("2 bytes"));
    let w = match n {
        8.. => return (word(b, 0), word(b, n - 8)),
        4..=7 => u64::from(half(0)) | u64::from(half(n - 4)) << (8 * (n - 4)),
        2..=3 => u64::from(quarter(0)) | u64::from(quarter(n - 2)) << (8 * (n - 2)),
        1 => u64::from(b[0]),
        _ => 0,
    };
    (w, w)
}

/// A name's hash: its key words, and past 16 bytes its middle words
/// too, folded multiply-rotate ("Fx") style — long names that share
/// their ends still spread over the table. Not DoS-hardened: names come
/// from queries and from documents the caller chose to parse.
#[inline]
fn name_hash(b: &[u8], (head, tail): (u64, u64)) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let fold = |h: u64, w: u64| (h.rotate_left(26) ^ w).wrapping_mul(SEED);
    let mut h = fold(head.wrapping_mul(SEED), tail);
    let mut at = 8;
    while at + 8 < b.len() {
        h = fold(h, word(b, at));
        at += 8;
    }
    h
}

impl Default for SymbolsSnapshot {
    fn default() -> SymbolsSnapshot {
        SymbolsSnapshot::with_names(Vec::new())
    }
}

impl SymbolsSnapshot {
    /// The table of `names`, issued densely from sym 0, at most half
    /// full.
    fn with_names(names: Vec<String>) -> SymbolsSnapshot {
        let size = (2 * names.len()).next_power_of_two().max(2);
        let (words, len, sym) = ((0, 0), 0, Sym::UNKNOWN);
        let empty = Entry { words, len, sym };
        let mut table = SymbolsSnapshot {
            entries: vec![empty; size],
            shift: 64 - size.trailing_zeros(),
            names,
        };
        for id in 0..table.names.len() {
            table.place(Sym(id as u32));
        }
        table
    }

    /// Writes `sym`'s entry into the first free one of its probe
    /// sequence.
    fn place(&mut self, sym: Sym) {
        let b = self.names[sym.index()].as_bytes();
        let (words, len) = (key_words(b), b.len() as u32);
        let mask = self.entries.len() - 1;
        let mut i = (name_hash(b, words) >> self.shift) as usize;
        while self.entries[i].sym != Sym::UNKNOWN {
            i = (i + 1) & mask;
        }
        self.entries[i] = Entry { words, len, sym };
    }

    /// Issues the next sym to `name`, which the table lacks, doubling
    /// the table first when it would pass half full.
    fn push(&mut self, name: &str) -> Sym {
        let sym = Sym(self.names.len() as u32);
        assert!(sym.0 < u32::MAX - 1, "symbol table overflow");
        self.names.push(name.to_string());
        if 2 * self.names.len() > self.entries.len() {
            *self = SymbolsSnapshot::with_names(std::mem::take(&mut self.names));
        } else {
            self.place(sym);
        }
        sym
    }

    /// The sym for `name`, if the source table had interned it when the
    /// snapshot was built. Lock-free: one probe sequence.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        let b = name.as_bytes();
        let words = key_words(b);
        let mask = self.entries.len() - 1;
        let mut i = (name_hash(b, words) >> self.shift) as usize;
        loop {
            let e = &self.entries[i];
            if e.sym == Sym::UNKNOWN {
                return None;
            }
            if e.words == words
                && e.len == b.len() as u32
                && (b.len() <= 16 || self.names[e.sym.index()] == name)
            {
                return Some(e.sym);
            }
            i = (i + 1) & mask;
        }
    }

    /// The sym for `name`, or [`Sym::UNKNOWN`] when the snapshot does
    /// not contain it — the read-only conversion: an unknown name cannot
    /// equal any compiled node test, so the sentinel behaves exactly
    /// like a fresh sym without growing the table. Lock-free.
    pub fn lookup_or_unknown(&self, name: &str) -> Sym {
        self.lookup(name).unwrap_or(Sym::UNKNOWN)
    }

    /// The name behind `sym`, borrowed from the snapshot (no clone, no
    /// lock). `None` for [`Sym::UNKNOWN`] or a sym issued after the
    /// snapshot was built.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.names.get(sym.index()).map(String::as_str)
    }

    /// Number of names the snapshot holds.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the snapshot holds no names.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One lookup-only name resolver's hold on its table's shared frozen
/// view ([`Symbols::snapshot`], taken at the first lookup): a
/// lookup-only frontend's [`crate::Names`], or whoever interns owned
/// events with [`AttrBuf::sym_event`] (an engine session, a bare
/// filter). A name costs one probe into the view; one the view lacks is
/// [`Sym::UNKNOWN`]. (An interning frontend holds no view: it calls
/// [`Symbols::intern`], a read lock and one probe into the same layout.)
///
/// # Name freshness
///
/// The view does not see names interned after it was built (a late
/// subscription compiling behind a live parser). Nobody has to tell the
/// holder: it compares the view's length with the table's **once per
/// document** — `Frontend::reset` for the frontends, `StartDocument` in
/// [`AttrBuf::sym_event`] for owned events; one atomic load — and, if
/// the table grew, takes the new shared view. Never mid-document: the
/// filters test an end tag's sym against the start tag's, so a name
/// must resolve alike at both ends of an element.
#[derive(Debug, Clone, Default)]
pub struct SymCache {
    view: Option<Arc<SymbolsSnapshot>>,
}

impl SymCache {
    /// An empty cache.
    pub fn new() -> SymCache {
        SymCache::default()
    }

    /// The sym for `name`, or [`Sym::UNKNOWN`] when `symbols` does not
    /// hold it: one probe into `symbols`' shared frozen view (see the
    /// type docs for when the view is renewed). Never interns.
    #[inline]
    pub fn lookup(&mut self, symbols: &Symbols, name: &str) -> Sym {
        let view = self.view.get_or_insert_with(|| symbols.snapshot());
        view.lookup_or_unknown(name)
    }

    /// The once-per-document freshness check: when `symbols` grew since
    /// the view was taken, takes the new shared view. One atomic load,
    /// and no allocation, when the table did not grow.
    pub(crate) fn sync(&mut self, symbols: &Symbols) {
        let Some(view) = &self.view else { return };
        if view.len() != symbols.len() {
            self.view = Some(symbols.snapshot());
        }
    }
}

/// An attribute of an interned start-element event: interned name,
/// entity-decoded value. The value `String` is owned by a reusable
/// scratch buffer ([`AttrBuf`]), so steady-state parsing reuses its
/// capacity instead of allocating per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymAttr {
    /// The interned attribute name (no `@` sigil).
    pub name: Sym,
    /// The attribute value, entity-decoded.
    pub value: String,
}

/// A SAX event with interned names and borrowed payloads: the zero-copy
/// sibling of the owned [`crate::Event`].
///
/// Produced by [`crate::StreamingParser::feed_interned`] (names interned
/// into the parser's table, attribute/text payloads borrowed from its
/// reusable scratch buffers) and consumed natively by the `fx-core`
/// filters, whose compiled node tests are syms from the same table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymEvent<'a> {
    /// `startDocument()`.
    StartDocument,
    /// `endDocument()`.
    EndDocument,
    /// `startElement(n)` with its attributes.
    StartElement {
        /// The interned element name.
        name: Sym,
        /// The attributes, in document order.
        attributes: &'a [SymAttr],
    },
    /// `endElement(n)`.
    EndElement {
        /// The interned element name.
        name: Sym,
    },
    /// `text(α)`.
    Text {
        /// The entity-decoded character content.
        content: &'a str,
    },
}

/// What [`Sym::UNKNOWN`] resolves to in [`SymEvent::to_owned`]: a name
/// a lookup-only source could not resolve is by construction outside
/// every compiled query's vocabulary (if a query mentioned it, compiling
/// the query would have interned it), and U+FFFD is not a name-start
/// character in any frontend, so this sentinel can never equal a node
/// test — evaluators reject it exactly as they would the real name.
const UNKNOWN_NAME: &str = "\u{fffd}unknown";

impl SymEvent<'_> {
    /// Converts to an owned [`crate::Event`], resolving names through
    /// `symbols` (the table the syms were issued by). This is the one
    /// interned → owned conversion in the workspace, and it is total:
    /// [`Sym::UNKNOWN`] (what a lookup-only source stamps on a name its
    /// table has never seen) becomes a sentinel name that no node test
    /// can equal.
    pub fn to_owned(&self, symbols: &Symbols) -> crate::Event {
        let resolve = |sym: Sym| {
            if sym == Sym::UNKNOWN {
                UNKNOWN_NAME.to_string()
            } else {
                symbols.resolve(sym)
            }
        };
        match *self {
            SymEvent::StartDocument => crate::Event::StartDocument,
            SymEvent::EndDocument => crate::Event::EndDocument,
            SymEvent::StartElement { name, attributes } => crate::Event::StartElement {
                name: resolve(name),
                attributes: attributes
                    .iter()
                    .map(|a| crate::Attribute {
                        name: resolve(a.name),
                        value: a.value.clone(),
                    })
                    .collect(),
            },
            SymEvent::EndElement { name } => crate::Event::EndElement {
                name: resolve(name),
            },
            SymEvent::Text { content } => crate::Event::Text {
                content: content.to_string(),
            },
        }
    }
}

/// A reusable attribute buffer: holds `SymAttr` slots whose value
/// `String`s keep their capacity across [`AttrBuf::clear`], so filling
/// it allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct AttrBuf {
    items: Vec<SymAttr>,
    /// Attribute name strings, parallel to `items` and likewise pooled
    /// — filled by [`AttrBuf::push_named`] so duplicate detection can
    /// compare strings even when several unknown names share
    /// [`Sym::UNKNOWN`]. Slots filled via [`AttrBuf::push_name`] leave
    /// their name string empty.
    names: Vec<String>,
    len: usize,
}

impl AttrBuf {
    /// An empty buffer.
    pub fn new() -> AttrBuf {
        AttrBuf::default()
    }

    /// Logically empties the buffer, retaining every slot's capacity.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The filled attributes.
    pub fn as_slice(&self) -> &[SymAttr] {
        &self.items[..self.len]
    }

    /// Number of filled attributes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no attributes are filled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when a filled attribute already carries `name`.
    pub fn contains_name(&self, name: Sym) -> bool {
        self.as_slice().iter().any(|a| a.name == name)
    }

    /// Opens the next slot under `name` and returns its (cleared) value
    /// buffer for the caller to fill. Reuses a retired slot's `String`
    /// when one is available.
    pub fn push_name(&mut self, name: Sym) -> &mut String {
        if self.len == self.items.len() {
            self.items.push(SymAttr {
                name,
                value: String::new(),
            });
            self.names.push(String::new());
        } else {
            self.items[self.len].name = name;
            self.items[self.len].value.clear();
            self.names[self.len].clear();
        }
        self.len += 1;
        &mut self.items[self.len - 1].value
    }

    /// [`AttrBuf::push_name`], additionally recording the attribute's
    /// name string (reusing the slot's capacity) so
    /// [`AttrBuf::has_name_str`] can detect duplicates by text — the
    /// only sound check when unknown names collapse to
    /// [`Sym::UNKNOWN`].
    pub fn push_named(&mut self, sym: Sym, name: &str) -> &mut String {
        self.push_name(sym); // opens the slot and clears its name string
        self.names[self.len - 1].push_str(name);
        &mut self.items[self.len - 1].value
    }

    /// True when a slot filled via [`AttrBuf::push_named`] already
    /// carries the name string `name`.
    pub fn has_name_str(&self, name: &str) -> bool {
        self.names[..self.len].iter().any(|n| n == name)
    }

    /// The one owned → interned conversion in the workspace: borrows
    /// `event` as a [`SymEvent`], looking element and attribute names
    /// up through `cache` *without* interning (names `symbols` has never
    /// seen become [`Sym::UNKNOWN`], which fails every named node test)
    /// and staging attributes in this buffer. Filters and banks call it
    /// when fed pre-materialized [`crate::Event`]s — fixtures and
    /// hand-pushed events; parsers emit [`SymEvent`]s natively.
    /// `StartDocument` is where `cache` catches up with names interned
    /// since the last document (see [`SymCache`]).
    pub fn sym_event<'s>(
        &'s mut self,
        cache: &mut SymCache,
        symbols: &Symbols,
        event: &'s crate::Event,
    ) -> SymEvent<'s> {
        match event {
            crate::Event::StartDocument => {
                cache.sync(symbols);
                SymEvent::StartDocument
            }
            crate::Event::EndDocument => SymEvent::EndDocument,
            crate::Event::StartElement { name, attributes } => {
                self.clear();
                for a in attributes {
                    self.push_name(cache.lookup(symbols, &a.name))
                        .push_str(&a.value);
                }
                SymEvent::StartElement {
                    name: cache.lookup(symbols, name),
                    attributes: self.as_slice(),
                }
            }
            crate::Event::EndElement { name } => SymEvent::EndElement {
                name: cache.lookup(symbols, name),
            },
            crate::Event::Text { content } => SymEvent::Text { content },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let t = Symbols::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "a");
        assert_eq!(t.resolve(b), "b");
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let t = Symbols::new();
        t.intern("known");
        let mut cache = SymCache::new();
        assert_eq!(cache.lookup(&t, "known"), Sym(0));
        assert_eq!(t.snapshot().lookup("unknown"), None);
        assert_eq!(cache.lookup(&t, "unknown"), Sym::UNKNOWN);
        assert_eq!(t.len(), 1, "lookup must not intern");
    }

    #[test]
    fn snapshot_is_shared_until_the_table_grows() {
        let t = Symbols::new();
        assert!(Arc::ptr_eq(&t.snapshot(), &t.snapshot()));
        let a = t.intern("a");
        let view = t.snapshot();
        assert_eq!(view.lookup("a"), Some(a));
        assert!(Arc::ptr_eq(&view, &t.snapshot()));
        t.intern("a"); // known name: no growth, no rebuild
        assert!(Arc::ptr_eq(&view, &t.snapshot()));
        let b = t.intern("b");
        let grown = t.snapshot();
        assert!(!Arc::ptr_eq(&view, &grown));
        assert_eq!((view.lookup("b"), grown.lookup("b")), (None, Some(b)));
        assert_eq!(grown.len(), t.len());
    }

    #[test]
    fn attr_buf_reuses_slots() {
        let t = Symbols::new();
        let mut buf = AttrBuf::new();
        let a = t.intern("a");
        let b = t.intern("b");
        buf.push_name(a).push_str("one");
        buf.push_name(b).push_str("two");
        assert_eq!(buf.len(), 2);
        assert!(buf.contains_name(a) && buf.contains_name(b));
        let cap = buf.items[0].value.capacity();
        buf.clear();
        assert!(buf.is_empty());
        buf.push_name(b).push_str("re");
        assert_eq!(buf.as_slice()[0].name, b);
        assert_eq!(buf.as_slice()[0].value, "re");
        assert_eq!(buf.items[0].value.capacity(), cap, "capacity retained");
    }

    #[test]
    fn sym_event_round_trips_to_owned() {
        let t = Symbols::new();
        let name = t.intern("item");
        let attr = t.intern("id");
        let mut buf = AttrBuf::new();
        buf.push_name(attr).push('7');
        let ev = SymEvent::StartElement {
            name,
            attributes: buf.as_slice(),
        };
        assert_eq!(
            ev.to_owned(&t),
            crate::Event::start_with_attrs("item", vec![crate::Attribute::new("id", "7")])
        );
        assert_eq!(
            SymEvent::Text { content: "x" }.to_owned(&t),
            crate::Event::text("x")
        );
        // …and back: the owned → interned helper inverts it.
        let owned = ev.to_owned(&t);
        let (mut cache, mut back) = (SymCache::new(), AttrBuf::new());
        assert_eq!(back.sym_event(&mut cache, &t, &owned), ev);
        // Total over lookup-only streams: UNKNOWN becomes a sentinel
        // name that is itself outside the table, so it converts back
        // to UNKNOWN instead of panicking in `resolve`.
        let unknown = SymEvent::EndElement { name: Sym::UNKNOWN };
        let owned = unknown.to_owned(&t);
        assert_eq!(owned.element_name(), Some(UNKNOWN_NAME));
        assert_eq!(back.sym_event(&mut cache, &t, &owned), unknown);
    }

    #[test]
    fn concurrent_interning_agrees() {
        use std::sync::Arc;
        let t = Arc::new(Symbols::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| t.intern(&format!("n{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(t.len(), 100);
    }

    /// One name of every length 1–40 (each a valid XML name), and names
    /// the two key words alone cannot tell apart: equal first and last
    /// eight bytes with different middles, words that repeat across
    /// lengths, multi-byte UTF-8.
    fn tricky_names() -> Vec<String> {
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789-._".chars().collect();
        let mut names: Vec<String> = (1..=40)
            .map(|n| {
                let tail = (1..n).map(|i| alphabet[(7 * i + n) % alphabet.len()]);
                std::iter::once('n').chain(tail).collect()
            })
            .collect();
        for mid in ["", "x", "y", "xy", "yx", "a-longer-middle"] {
            names.push(format!("prefix-a{mid}suffix-z"));
        }
        let more = [
            "abcdefgh",
            "abcdefghabcdefgh",
            "abcdefghxabcdefgh",
            "élément",
            "名前",
            "ελληνικά-ονόματα-εδώ",
            "ελληνικά-ονόματα-εκεί",
        ];
        names.extend(more.map(String::from));
        names
    }

    /// `tricky_names`, interned, with a test-side oracle of their syms.
    fn interned(extra: &[&str]) -> (Symbols, HashMap<String, Sym>) {
        let t = Symbols::new();
        let mut names = tricky_names();
        names.extend(extra.iter().map(|n| n.to_string()));
        let oracle = names
            .into_iter()
            .map(|n| (t.intern(&n), n))
            .map(|(s, n)| (n, s));
        let oracle: HashMap<String, Sym> = oracle.collect();
        (t, oracle)
    }

    #[test]
    fn the_view_resolves_every_interned_name_to_its_sym() {
        // Names a byte-valued key word pads alike: a NUL tail, the empty
        // name (a JSON key), a four-byte scalar.
        let (t, oracle) = interned(&["a", "a\0", "", "a🙂b"]);
        let lengths: Vec<usize> = oracle.keys().map(String::len).collect();
        for len in [3, 4, 7, 8, 9, 16, 17, 23] {
            assert!(lengths.contains(&len), "no name of {len} bytes");
        }
        let view = t.snapshot();
        let mut cache = SymCache::new();
        for (name, &sym) in &oracle {
            assert_eq!(view.lookup(name), Some(sym), "{name:?}");
            assert_eq!(cache.lookup(&t, name), sym, "{name:?}");
            assert_eq!(view.resolve(sym), Some(name.as_str()));
        }
        assert_eq!(view.len(), oracle.len());
    }

    #[test]
    fn names_never_interned_stay_unknown() {
        let (t, oracle) = interned(&[]);
        let view = t.snapshot();
        let mut cache = SymCache::new();
        let mut probes = vec![
            "prefix-azsuffix-z".to_string(), // the same two words as `x` and `y`
            "prefix-aysuffix-y".to_string(),
            "abcdefghyabcdefgh".to_string(),
            "elément".to_string(),
            "名".to_string(),
            "\0".to_string(),
            String::new(),
        ];
        for name in oracle.keys() {
            probes.push(format!("{name}_"));
            probes.push(format!("_{name}"));
            let mut flipped = name.clone().into_bytes();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x01;
            probes.extend(String::from_utf8(flipped).ok());
        }
        for probe in probes.iter().filter(|p| !oracle.contains_key(*p)) {
            assert_eq!(view.lookup(probe), None, "{probe:?}");
            assert_eq!(cache.lookup(&t, probe), Sym::UNKNOWN, "{probe:?}");
        }
        assert_eq!(t.len(), oracle.len(), "lookups must not intern");
    }

    #[test]
    fn a_large_table_of_near_twins_resolves_exactly() {
        // Thousands of long names with equal first and last eight bytes
        // (equal lengths by the hundred), beside short ones.
        let t = Symbols::new();
        let names: Vec<String> = (0..3000)
            .flat_map(|i| [format!("common-head-{i}-common-tail"), format!("n{i}")])
            .collect();
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        let view = t.snapshot();
        for (name, &sym) in names.iter().zip(&syms) {
            assert_eq!(view.lookup(name), Some(sym), "{name}");
        }
        assert_eq!(view.lookup("common-head-3000-common-tail"), None);
        assert_eq!(view.lookup("n3000"), None);
    }

    /// The element-name syms of every tag `xml` holds, in order.
    fn tag_syms(parser: &mut crate::StreamingParser, xml: &str) -> Vec<Sym> {
        let mut syms = Vec::new();
        let mut emit = |ev: SymEvent<'_>, _| match ev {
            SymEvent::StartElement { name, .. } | SymEvent::EndElement { name } => syms.push(name),
            _ => {}
        };
        parser.feed_interned(xml, &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
        syms
    }

    /// `<n1><n2>…</n2></n1>`: every name nested once, so tag `i` and
    /// tag `2k - 1 - i` are one element's two ends.
    fn nested(names: &[String]) -> String {
        let open: String = names.iter().map(|n| format!("<{n}>")).collect();
        let close: String = names.iter().rev().map(|n| format!("</{n}>")).collect();
        open + &close
    }

    #[test]
    fn a_lookup_only_parser_stamps_both_tags_of_an_element_alike() {
        let (t, oracle) = interned(&[]);
        let t = Arc::new(t);
        let mut names = tricky_names();
        // Never interned: both ends unknown, however long.
        names.extend(["prefix-azsuffix-z", "n-unknown", "q"].map(String::from));
        let mut parser = crate::StreamingParser::with_symbols(Arc::clone(&t)).lookup_only();
        let syms = tag_syms(&mut parser, &nested(&names));
        let k = names.len();
        for (i, name) in names.iter().enumerate() {
            let want = oracle.get(name).copied().unwrap_or(Sym::UNKNOWN);
            assert_eq!((syms[i], syms[2 * k - 1 - i]), (want, want), "{name}");
        }
        assert_eq!(t.len(), oracle.len());
    }

    #[test]
    fn an_interning_owner_sees_its_own_mid_document_names_alike() {
        let t = Arc::new(Symbols::new());
        let known = t.intern("r");
        let mut parser = crate::StreamingParser::with_symbols(Arc::clone(&t));
        // Interned mid-document: each fresh name keeps one sym at every
        // tag.
        let fresh = ["fresh", "a-name-longer-than-sixteen-bytes", "名前"];
        let doc = |n: &str| format!("<r><{n}><{n}/></{n}><{n}/></r>");
        for name in fresh {
            let syms = tag_syms(&mut parser, &doc(name));
            let sym = t.intern(name);
            assert_eq!(syms, [known, sym, sym, sym, sym, sym, sym, known]);
            parser.reset();
        }
        let syms: Vec<Sym> = fresh.iter().map(|n| t.intern(n)).collect();
        assert_eq!(
            syms.iter().map(|s| s.index()).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        // The next document agrees.
        let all = fresh.map(String::from);
        let again = tag_syms(&mut parser, &nested(&all));
        assert_eq!(
            again,
            [syms[0], syms[1], syms[2], syms[2], syms[1], syms[0]]
        );
    }
}
