//! Dispatch codes and the per-code chains the run threads through its
//! stacks: a start tag walks only what its name or a wildcard can fire.

use fx_xml::Sym;

/// The record/node code standing for a wildcard node test. Interned
/// sym ids never reach it (the table asserts well below `u32::MAX - 1`)
/// and [`Sym::UNKNOWN`] is `u32::MAX`, so every name — known, unknown
/// or wildcard — is one `u32` chain key with no `Option` unwrapping.
pub(super) const WILDCARD_CODE: u32 = u32::MAX - 1;

/// The dense dispatch code of a node test: its interned sym id, or
/// [`WILDCARD_CODE`].
pub(super) fn sym_code(sym: Option<Sym>) -> u32 {
    match sym {
        None => WILDCARD_CODE,
        Some(s) => s.index() as u32,
    }
}

/// "No entry": an empty chain, and the `prev` of a chain's oldest member.
pub(super) const NIL: u32 = u32::MAX;

/// Heads of the per-dispatch-code chains threaded through a stack
/// (`records` or `wake_links`): one `u32` per symbol of the bank's
/// table, sized when churn may have *added* a code (`Run::fit`), never
/// per document. Slot 0 is the wildcard's, slot 1 [`Sym::UNKNOWN`]'s (never
/// chained, so always [`NIL`]) and slot `i + 2` symbol `i`'s — the
/// codes' own order, wrapped. The chains are intrusive — each stack
/// entry names the previous (older) entry with its code — and the
/// stacks shrink only from the tail, so a chain's head is its most
/// recent member and a push or pop is one head swap.
#[derive(Debug, Clone, Default)]
pub(super) struct Chains(pub(super) Vec<u32>);

impl Chains {
    pub(super) fn slot(code: u32) -> usize {
        code.wrapping_add(2) as usize
    }

    /// Makes room for `heads` heads.
    pub(super) fn fit(&mut self, heads: usize) {
        if self.0.len() < heads {
            self.0.resize(heads, NIL);
        }
    }

    /// The most recent entry chained under `code` — [`NIL`] for a code
    /// the bank never registered (say, a name someone else interned
    /// into the shared table).
    #[inline]
    pub(super) fn head(&self, code: u32) -> u32 {
        self.0.get(Chains::slot(code)).copied().unwrap_or(NIL)
    }

    /// Chains the stack entry about to be pushed at index `at` under
    /// `code`; returns the entry's `prev`.
    #[inline]
    pub(super) fn push(&mut self, code: u32, at: usize) -> u32 {
        std::mem::replace(&mut self.0[Chains::slot(code)], at as u32)
    }

    /// Unchains the stack entry just popped from index `at`.
    #[inline]
    pub(super) fn pop(&mut self, code: u32, at: usize, prev: u32) {
        let head = &mut self.0[Chains::slot(code)];
        debug_assert_eq!(*head as usize, at, "chains pop in stack order");
        *head = prev;
    }
}
