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
//!   [`Symbols::lookup_or_unknown`], and compares unequal to every
//!   interned sym (so a document name no query mentions simply fails
//!   every named node test, without growing the table).
//!
//! The table is internally synchronized (`RwLock`); interning an
//! already-known name takes a read lock only, so concurrent sessions
//! sharing one table do not serialize on the hot path.
//!
//! Because ids are never recycled, the table's footprint grows with
//! every *distinct* name ever interned. Long-lived consumers that
//! stream adversarial name cardinality should resolve document names
//! read-only (`StreamingParser::lookup_only`, [`Symbols::lookup_or_unknown`])
//! so only compiled query vocabulary ever lands in the table — the
//! engine's reader path does exactly this.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::RwLock;

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
    /// [`Symbols::lookup_or_unknown`]). Never issued by
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
        s
    }

    /// The sym for `name`, if it was ever interned.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.inner
            .read()
            .expect("symbols lock")
            .map
            .get(name)
            .copied()
    }

    /// The sym for `name`, or [`Sym::UNKNOWN`] when the table has never
    /// seen it. This is the read-only conversion used when feeding
    /// string-named events to compiled filters: an unknown name cannot
    /// equal any compiled node test, so the sentinel behaves exactly
    /// like a fresh sym without growing the table.
    pub fn lookup_or_unknown(&self, name: &str) -> Sym {
        self.lookup(name).unwrap_or(Sym::UNKNOWN)
    }

    /// The name behind `sym` (a clone; resolution is for diagnostics
    /// and the owned-event conversion layer, not the hot path).
    ///
    /// Panics on [`Sym::UNKNOWN`] or a sym from another table.
    pub fn resolve(&self, sym: Sym) -> String {
        self.inner.read().expect("symbols lock").names[sym.index()].clone()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.inner.read().expect("symbols lock").names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures the table's current contents as a frozen
    /// [`SymbolsSnapshot`]: an immutable copy whose lookups take **no
    /// lock at all**, for fan-out across worker threads. Because ids
    /// are stable and never recycled, every sym the snapshot resolves
    /// stays valid against the live table forever; names interned
    /// *after* the freeze are simply absent from the snapshot (they
    /// resolve to [`Sym::UNKNOWN`]), exactly as if a lookup-only
    /// consumer had raced ahead of the interning. Re-freeze after
    /// growing the table behind snapshot readers — see
    /// [`SymbolsSnapshot::is_current`].
    pub fn freeze(&self) -> SymbolsSnapshot {
        let inner = self.inner.read().expect("symbols lock");
        SymbolsSnapshot {
            map: inner.map.clone(),
            names: inner.names.clone(),
        }
    }
}

/// A frozen, read-only view of a [`Symbols`] table at one instant
/// (produced by [`Symbols::freeze`]), shareable via `Arc` across any
/// number of worker threads with **lock-free** lookups.
///
/// # Invariants
///
/// * Every `(name, sym)` pair in the snapshot is permanently valid
///   against the source table: ids are never recycled, so a snapshot
///   can never return a sym the live table disagrees with.
/// * A snapshot never sees names interned after the freeze — they
///   resolve to [`Sym::UNKNOWN`], the same collapse a lookup-only
///   parser applies to out-of-vocabulary document names. A consumer
///   whose compiled vocabulary grows (a dissemination server accepting
///   a new subscription) must re-freeze, exactly where it already
///   invalidates its [`SymCache`] memo.
/// * Freezing is O(table size) and happens at churn boundaries, never
///   on the per-event hot path.
#[derive(Debug, Clone, Default)]
pub struct SymbolsSnapshot {
    map: FxMap<String, Sym>,
    names: Vec<String>,
}

impl SymbolsSnapshot {
    /// The sym for `name`, if the source table had interned it at
    /// freeze time. Lock-free.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    /// The sym for `name`, or [`Sym::UNKNOWN`] when the snapshot does
    /// not contain it — the read-only conversion worker threads use.
    /// Lock-free.
    pub fn lookup_or_unknown(&self, name: &str) -> Sym {
        self.lookup(name).unwrap_or(Sym::UNKNOWN)
    }

    /// The name behind `sym`, borrowed from the snapshot (no clone, no
    /// lock). `None` for [`Sym::UNKNOWN`] or a sym issued after the
    /// freeze.
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

    /// True when `table` has interned nothing since this snapshot was
    /// frozen (ids are dense and never recycled, so equal lengths mean
    /// equal contents). The cheap staleness probe for consumers that
    /// re-freeze at churn boundaries.
    pub fn is_current(&self, table: &Symbols) -> bool {
        self.names.len() == table.len()
    }
}

/// A small 2-way set-associative, lock-free memo for [`Symbols`]
/// lookups, owned by a single consumer (a filter bank's owned-event
/// conversion layer). XML documents draw names from a tiny vocabulary,
/// so almost every per-event lookup hits the cache and costs a short
/// hash plus one or two string compares — no table lock at all. Misses
/// fall through to the shared table and fill the set's colder way
/// (reusing its `String` capacity).
///
/// Two ways per set matter: real vocabularies routinely put two hot
/// names in one hash bucket (an element and the attribute it always
/// carries, say), and a direct-mapped memo would then *miss on every
/// single lookup* as the pair evicts each other — paying the table's
/// read lock per event. With two ways and move-to-front promotion the
/// alternating pair simply occupies both ways of its set.
///
/// The cache memoizes *lookup* results, including "unknown". A memoed
/// [`Sym::UNKNOWN`] can go stale when another table user (a parser, a
/// later-built bank) interns that name afterwards — harmlessly: the
/// consumer's own compiled names were all interned before its first
/// lookup, so a name that ever memoizes as unknown is outside its
/// compiled vocabulary, where `UNKNOWN` and a real (never-compared)
/// sym behave identically.
///
/// **Multi-worker caveat.** The harmlessness argument is *per
/// consumer*: it assumes the consumer's own vocabulary never grows
/// behind its memo. In a pool of workers sharing one table, a
/// subscribe handled by worker A interns names that worker B's memo
/// may already hold as `UNKNOWN` from B's earlier documents — and B's
/// vocabulary *did* just grow, so the staleness is no longer harmless
/// for B. Every worker must therefore invalidate its **own** memo
/// (and re-freeze its own [`SymbolsSnapshot`], if it parses against
/// one) when it applies the churn command — invalidating only the
/// worker that performed the interning is a correctness bug. The
/// dissemination server does this by broadcasting churn to every worker,
/// each of which refreshes its own session's memo; the regression is
/// pinned by `tests/concurrency_stress.rs`.
#[derive(Debug, Clone, Default)]
pub struct SymCache {
    slots: Vec<CacheSlot>,
}

/// Number of 2-way sets; the memo holds twice this many entries.
const SYM_CACHE_SETS: usize = 128;

/// Longest name memoized inline. Longer names (rare in real vocabularies)
/// bypass the memo and pay the shared-table lookup each time.
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

    fn filled(nb: &[u8], sym: Sym) -> CacheSlot {
        let mut slot = CacheSlot::EMPTY;
        slot.name[..nb.len()].copy_from_slice(nb);
        slot.len = nb.len() as u8;
        slot.sym = sym;
        slot
    }

    /// Zero-pads a probe key once so every way comparison is a
    /// fixed-size array equality (unrolled word compares, no
    /// variable-length `memcmp` per way). Slot padding bytes are
    /// always zero ([`CacheSlot::filled`] starts from `EMPTY`), so
    /// padded equality coincides with prefix equality.
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

/// The raw Fx hash of a byte string (the [`FxHasher`] fold, without
/// the `Hash`-trait framing).
fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// NOTE: slots materialize on first use (`Default` is an empty vec), so
// `mem::take`-style swaps of a consumer's cache cost nothing.
impl SymCache {
    /// An empty cache.
    pub fn new() -> SymCache {
        SymCache::default()
    }

    /// Index of the first (hotter) way of `name`'s set.
    fn set_index(name: &str) -> usize {
        ((fx_hash_bytes(name.as_bytes()) as usize) & (SYM_CACHE_SETS - 1)) * 2
    }

    /// [`Symbols::lookup_or_unknown`] through the memo.
    pub fn lookup(&mut self, symbols: &Symbols, name: &str) -> Sym {
        let nb = name.as_bytes();
        if nb.is_empty() || nb.len() > SYM_CACHE_NAME_MAX {
            return symbols.lookup_or_unknown(name);
        }
        if self.slots.is_empty() {
            self.slots.resize(SYM_CACHE_SETS * 2, CacheSlot::EMPTY);
        }
        let idx = SymCache::set_index(name);
        let key = CacheSlot::pad_key(nb);
        if self.slots[idx].matches(nb.len(), &key) {
            return self.slots[idx].sym;
        }
        if self.slots[idx + 1].matches(nb.len(), &key) {
            self.slots.swap(idx, idx + 1);
            return self.slots[idx].sym;
        }
        let sym = symbols.lookup_or_unknown(name);
        // Fill the colder way, then promote it to the front.
        self.slots[idx + 1] = CacheSlot::filled(nb, sym);
        self.slots.swap(idx, idx + 1);
        sym
    }

    /// [`Symbols::lookup_or_unknown`] through the memo, resolving
    /// misses against a frozen [`SymbolsSnapshot`] instead of the live
    /// table: the fully lock-free worker-thread form (hits touch only
    /// the memo, misses only the immutable snapshot).
    pub fn lookup_frozen(&mut self, snapshot: &SymbolsSnapshot, name: &str) -> Sym {
        let nb = name.as_bytes();
        if nb.is_empty() || nb.len() > SYM_CACHE_NAME_MAX {
            return snapshot.lookup_or_unknown(name);
        }
        if self.slots.is_empty() {
            self.slots.resize(SYM_CACHE_SETS * 2, CacheSlot::EMPTY);
        }
        let idx = SymCache::set_index(name);
        let key = CacheSlot::pad_key(nb);
        if self.slots[idx].matches(nb.len(), &key) {
            return self.slots[idx].sym;
        }
        if self.slots[idx + 1].matches(nb.len(), &key) {
            self.slots.swap(idx, idx + 1);
            return self.slots[idx].sym;
        }
        let sym = snapshot.lookup_or_unknown(name);
        self.slots[idx + 1] = CacheSlot::filled(nb, sym);
        self.slots.swap(idx, idx + 1);
        sym
    }

    /// [`SymCache::lookup`], optionally interning on a miss (with the
    /// memo slot refreshed so the stale "unknown" verdict is replaced):
    /// the one resolution primitive both parser modes share.
    pub fn lookup_or_intern(&mut self, symbols: &Symbols, name: &str, intern: bool) -> Sym {
        let sym = self.lookup(symbols, name);
        if sym != Sym::UNKNOWN || !intern {
            return sym;
        }
        let interned = symbols.intern(name);
        self.insert(name, interned);
        interned
    }

    /// Forgets every memoized verdict (slot storage is kept).
    /// Required after the shared table gains names *behind* a lookup-only
    /// consumer — e.g. a dissemination server compiling a freshly
    /// subscribed query — since a stale memoized [`Sym::UNKNOWN`] would
    /// otherwise hide the now-interned name from that consumer.
    pub fn clear(&mut self) {
        self.slots.fill(CacheSlot::EMPTY);
    }

    /// Overwrites the memo entry for `name` (used after interning a
    /// name the cache had memoized as unknown), leaving it in the hot
    /// way of its set.
    pub fn insert(&mut self, name: &str, sym: Sym) {
        let nb = name.as_bytes();
        if nb.is_empty() || nb.len() > SYM_CACHE_NAME_MAX {
            return;
        }
        if self.slots.is_empty() {
            self.slots.resize(SYM_CACHE_SETS * 2, CacheSlot::EMPTY);
        }
        let idx = SymCache::set_index(name);
        let key = CacheSlot::pad_key(nb);
        if self.slots[idx].matches(nb.len(), &key) {
            self.slots[idx].sym = sym;
            return;
        }
        // Hit in the cold way updates in place; a true miss evicts it.
        // Either way the entry is promoted to the front.
        self.slots[idx + 1] = CacheSlot::filled(nb, sym);
        self.slots.swap(idx, idx + 1);
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
    pub fn sym_event<'s>(
        &'s mut self,
        cache: &mut SymCache,
        symbols: &Symbols,
        event: &'s crate::Event,
    ) -> SymEvent<'s> {
        match event {
            crate::Event::StartDocument => SymEvent::StartDocument,
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
        assert_eq!(t.lookup("known"), Some(Sym(0)));
        assert_eq!(t.lookup("unknown"), None);
        assert_eq!(t.lookup_or_unknown("unknown"), Sym::UNKNOWN);
        assert_eq!(t.len(), 1, "lookup must not intern");
        assert_ne!(t.lookup_or_unknown("known"), Sym::UNKNOWN);
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
