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
//! already-known name takes a read lock only, and every *non-interning*
//! resolver reads the table's shared frozen view
//! ([`Symbols::snapshot`]) without any lock, so concurrent sessions
//! sharing one table do not serialize on the hot path.
//!
//! Because ids are never recycled, the table's footprint grows with
//! every *distinct* name ever interned. Long-lived consumers that
//! stream adversarial name cardinality should resolve document names
//! read-only (`StreamingParser::lookup_only`, [`SymCache::lookup`])
//! so only compiled query vocabulary ever lands in the table — the
//! engine's reader path does exactly this.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The multiply-xor hash used by the interning map (the widely-used
/// "Fx" construction): names are short and looked up once per event on
/// the hot path, where SipHash's per-byte cost dominates the whole
/// conversion. Not DoS-hardened — the table holds XML names from
/// documents the caller already chose to parse.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte words, then the tail, folding each with the
        // rotate-xor-multiply step.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        }
        // Fold the tail as one little-endian word. Short names (≤ 8
        // bytes — nearly every XML name) take exactly one fold, and the
        // 4..=7 case reads two overlapping u32s instead of looping per
        // byte (the overlap ORs identical bits, so the value equals the
        // byte-at-a-time fold).
        let rem = chunks.remainder();
        let tail = match rem.len() {
            0 => 0u64,
            4..=7 => {
                let head = u32::from_le_bytes(rem[..4].try_into().expect("4 bytes")) as u64;
                let end = u32::from_le_bytes(rem[rem.len() - 4..].try_into().expect("4 bytes"));
                head | ((end as u64) << (8 * (rem.len() - 4)))
            }
            _ => {
                let mut t = 0u64;
                for (i, &b) in rem.iter().enumerate() {
                    t |= (b as u64) << (8 * i);
                }
                t
            }
        };
        self.hash = (self.hash.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

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

#[derive(Debug, Default)]
struct Inner {
    map: FxMap<String, Sym>,
    names: Vec<String>,
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
    inner: RwLock<Inner>,
    /// `inner.names.len()`, published lock-free. Stored (`Release`)
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
        if let Some(&s) = self.inner.read().expect("symbols lock").map.get(name) {
            return s;
        }
        let mut inner = self.inner.write().expect("symbols lock");
        if let Some(&s) = inner.map.get(name) {
            return s; // raced with another writer
        }
        let id = inner.names.len() as u32;
        assert!(id < u32::MAX - 1, "symbol table overflow");
        let s = Sym(id);
        inner.names.push(name.to_string());
        inner.map.insert(name.to_string(), s);
        self.len.store(inner.names.len(), Ordering::Release);
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
            let inner = self.inner.read().expect("symbols lock");
            *view = Arc::new(SymbolsSnapshot {
                map: inner.map.clone(),
                names: inner.names.clone(),
            });
        }
        Arc::clone(&view)
    }
}

/// A frozen, read-only view of a [`Symbols`] table at one instant
/// (handed out, shared, by [`Symbols::snapshot`]): any number of worker
/// threads resolve names against it with **lock-free** lookups.
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
#[derive(Debug, Clone, Default)]
pub struct SymbolsSnapshot {
    map: FxMap<String, Sym>,
    names: Vec<String>,
}

impl SymbolsSnapshot {
    /// The sym for `name`, if the source table had interned it when the
    /// snapshot was built. Lock-free.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
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

/// A small 2-way set-associative, lock-free memo in front of a
/// [`Symbols`] table, owned by a single name resolver (a frontend's
/// [`crate::Names`], or whoever interns owned events with
/// [`AttrBuf::sym_event`]: an engine session, a bare filter).
/// XML documents draw names from a tiny vocabulary, so almost every
/// per-event lookup hits the memo and costs a short hash plus one or two
/// inline array compares. A miss is resolved by the owner's mode —
/// [`SymCache::lookup`] reads the table's shared frozen view
/// ([`Symbols::snapshot`]; no lock, and names too long for a memo slot
/// read it every time), the interning frontends go to
/// [`Symbols::intern`] — and overwrites the set's colder way.
///
/// Two ways per set matter: real vocabularies routinely put two hot
/// names in one hash bucket (an element and the attribute it always
/// carries, say), and a direct-mapped memo would then *miss on every
/// single lookup* as the pair evicts each other. With two ways and
/// move-to-front promotion the alternating pair simply occupies both
/// ways of its set.
///
/// # Name freshness
///
/// A lookup memoizes "unknown" too, and the view behind it does not see
/// names interned later (a late subscription compiling behind a live
/// parser). Nobody has to tell the memo: its owner compares the view's
/// length with the table's **once per document** — `Frontend::reset`
/// for the frontends, `StartDocument` in [`AttrBuf::sym_event`] for
/// owned events; one atomic load — and, if the table grew, takes the
/// new shared view and drops the memo. Never mid-document: the filters
/// test an end tag's sym against the start tag's, so a name must
/// resolve alike at both ends of an element. A name interned while a
/// document streams is seen from the next document on, by every
/// resolver on the table, without a call from whoever interned it.
#[derive(Debug, Clone, Default)]
pub struct SymCache {
    slots: Vec<CacheSlot>,
    /// The view lookup misses resolve against: taken at the first miss,
    /// re-validated by [`SymCache::sync`]. Never set by an interning
    /// owner: its table grows with every document and is not copied.
    view: Option<Arc<SymbolsSnapshot>>,
}

/// Number of 2-way sets; the memo holds twice this many entries.
const SYM_CACHE_SETS: usize = 128;

/// Longest name memoized inline. Longer names (rare in real vocabularies)
/// bypass the memo and pay the miss path each time.
const SYM_CACHE_NAME_MAX: usize = 22;

/// One memo entry. The name bytes live inline so a probe is a length
/// check plus a short `memcmp` — no pointer chase — and a fresh cache
/// materializes without a single per-name allocation.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    sym: Sym,
    /// Name length in bytes; `0` marks an empty slot (empty names
    /// never enter the memo).
    len: u8,
    name: [u8; SYM_CACHE_NAME_MAX],
}

impl CacheSlot {
    const EMPTY: CacheSlot = CacheSlot {
        sym: Sym::UNKNOWN,
        len: 0,
        name: [0; SYM_CACHE_NAME_MAX],
    };

    /// Zero-pads a probe key once so every way comparison is a
    /// fixed-size array equality (unrolled word compares, no
    /// variable-length `memcmp` per way). Slot padding bytes are
    /// always zero (a slot is filled with the padded key), so padded
    /// equality coincides with prefix equality.
    fn pad_key(nb: &[u8]) -> [u8; SYM_CACHE_NAME_MAX] {
        let mut key = [0u8; SYM_CACHE_NAME_MAX];
        key[..nb.len()].copy_from_slice(nb);
        key
    }

    #[inline]
    fn matches(&self, len: usize, key: &[u8; SYM_CACHE_NAME_MAX]) -> bool {
        self.len as usize == len && self.name == *key
    }
}

/// The one probe/fill body: `name`'s memoized sym, or `miss()` —
/// memoized in the colder way of its set, then promoted to the front.
#[inline]
fn memoized(slots: &mut Vec<CacheSlot>, name: &str, miss: impl FnOnce() -> Sym) -> Sym {
    let nb = name.as_bytes();
    if nb.is_empty() || nb.len() > SYM_CACHE_NAME_MAX {
        return miss();
    }
    // Slots materialize on first use (`Default` is an empty vec), so
    // `mem::take`-style swaps of a consumer's cache cost nothing.
    if slots.is_empty() {
        slots.resize(SYM_CACHE_SETS * 2, CacheSlot::EMPTY);
    }
    // Index of the first (hotter) way of `name`'s set: the raw Fx fold
    // of the bytes, without the `Hash`-trait framing.
    let mut hash = FxHasher::default();
    hash.write(nb);
    let idx = ((hash.finish() as usize) & (SYM_CACHE_SETS - 1)) * 2;
    let key = CacheSlot::pad_key(nb);
    if slots[idx].matches(nb.len(), &key) {
        return slots[idx].sym;
    }
    if slots[idx + 1].matches(nb.len(), &key) {
        slots.swap(idx, idx + 1);
        return slots[idx].sym;
    }
    let sym = miss();
    let (len, name) = (nb.len() as u8, key);
    slots[idx + 1] = CacheSlot { sym, len, name };
    slots.swap(idx, idx + 1);
    sym
}

impl SymCache {
    /// An empty cache.
    pub fn new() -> SymCache {
        SymCache::default()
    }

    /// The sym for `name`, or [`Sym::UNKNOWN`] when `symbols` does not
    /// hold it: the memo, then `symbols`' shared frozen view (see the
    /// type docs for when the view is renewed). Never interns.
    pub fn lookup(&mut self, symbols: &Symbols, name: &str) -> Sym {
        let SymCache { slots, view } = self;
        memoized(slots, name, || {
            view.get_or_insert_with(|| symbols.snapshot())
                .lookup_or_unknown(name)
        })
    }

    /// [`Symbols::intern`] through the memo: the interning frontends'
    /// resolution (every verdict it memoizes is a real sym).
    pub(crate) fn intern(&mut self, symbols: &Symbols, name: &str) -> Sym {
        memoized(&mut self.slots, name, || symbols.intern(name))
    }

    /// The once-per-document freshness check of a lookup-only owner:
    /// when `symbols` grew since the view was taken, takes the new
    /// shared view and forgets every memoized verdict (slot storage is
    /// kept). One atomic load, and no allocation, when it did not.
    pub(crate) fn sync(&mut self, symbols: &Symbols) {
        let stale = |view: &Arc<SymbolsSnapshot>| view.len() != symbols.len();
        if self.view.as_ref().is_some_and(stale) {
            self.view = Some(symbols.snapshot());
            self.slots.fill(CacheSlot::EMPTY);
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
}
