//! Space attribution: the bank's shared state charged back to the
//! queries that share it, so the indexed bank's space readings compare
//! with [`crate::MultiFilter`]'s (see the `indexed` module docs, "Space
//! attribution").

use super::{IndexSpaceStats, IndexedBank};

impl IndexedBank {
    /// Per-query **attributed** peak bits, comparable with
    /// [`crate::MultiFilter`]'s per-filter figures: each group's peak
    /// residual-instance bits are split evenly across the group's
    /// members, and the shared trie's peak bits evenly across the
    /// queries whose prefixes live in the trie (integer remainders go to
    /// the lowest-ranked sharers), so the vector sums **exactly** to
    /// [`IndexedBank::total_max_bits`]. Exact between documents;
    /// mid-document, a group's share is as of each of its live
    /// instances' last delivery (an instance is handed only the events
    /// that can move it), as [`crate::MultiFilter::stats`] says of its
    /// filters. Queries whose prefix never
    /// activated are charged only their share of the trie, and with no
    /// query live at all nothing is charged and the total reads the
    /// same (see [`IndexedBank::space_stats`]). The groups'
    /// split visits only the groups the document touched, and the trie's
    /// is one pass over a per-slot sharer column the index keeps (churn
    /// writes it), so no slot's group is read. Under real
    /// sharing (families of queries per trie path) a query's attribution
    /// sits well below what a standalone [`crate::StreamFilter`] run of
    /// the same query would cost; with only a handful of sharers the
    /// trie share — whose rows cost `log|trie|` where a lone filter's
    /// cost `log|Q|` — can exceed a solo run's figure by a bit or two.
    pub fn peak_memory_bits(&self) -> Vec<u64> {
        let (index, run) = (&*self.index, &self.run);
        let mut out = vec![0u64; index.query_group.len()];
        // Only a touched group can hold a peak.
        for &g in &run.touched {
            let members = &index.groups[g as usize].members;
            let bits = run.doc[g as usize].peak_bits;
            split_evenly(bits, members.len(), members.iter().copied(), &mut out);
        }
        // The trie sharers are everything alive except the members of
        // the empty-prefix root groups, counted from the group side and
        // charged in one pass over the sharer column.
        let rooted: usize = index
            .root_groups
            .iter()
            .map(|&g| index.groups[g as usize].members.len())
            .sum();
        let sharers = index.subs.len() - rooted;
        // Every trie query unsubscribed mid-life: the segment's history
        // has no natural owner left, so spread it over whatever is still
        // alive to keep the attribution summing exactly to the bank total.
        let (k, column) = match sharers {
            0 => (index.subs.len(), &index.slot_alive),
            _ => (sharers, &index.trie_sharer),
        };
        let marked = column.iter().enumerate().filter(|p| *p.1).map(|p| p.0);
        split_evenly(run.peak_trie_bits, k, marked, &mut out);
        out
    }

    /// Per-query peak counts of buffered unresolved candidate positions
    /// (all zero for filtering-mode banks) — the \[5\] selection cost.
    /// A query reports its group's peak, which counts the group's
    /// simultaneously-live instances together (one naive filter would
    /// buffer all those candidacies in a single reporter).
    pub fn peak_pending_positions(&self) -> Vec<usize> {
        let (index, doc) = (&*self.index, &self.run.doc);
        if !index.reporting {
            return vec![0; index.query_group.len()];
        }
        (index.query_group.iter())
            .map(|&g| doc[g as usize].peak_pending)
            .collect()
    }

    /// Aggregate peak logical state across the bank, in bits: the peak
    /// shared-trie segment plus the sum of per-group instance peaks
    /// (shared state counted **once** — that is the point of the index).
    /// Directly comparable with [`crate::MultiFilter::total_max_bits`],
    /// which sums per-filter peaks the same way; equals the sum of
    /// [`IndexedBank::peak_memory_bits`] exactly.
    pub fn total_max_bits(&self) -> u64 {
        self.space_stats().total_bits
    }

    /// The bank-level space/activation breakdown (see
    /// [`IndexSpaceStats`]). Exact between documents; mid-document, the
    /// residual bits are as of each live instance's last delivery, like
    /// [`IndexedBank::peak_memory_bits`]'s. Once every subscription is
    /// withdrawn, the
    /// trie's history has no query left to charge it to: the shared
    /// trie bits, like [`IndexedBank::peak_memory_bits`], read zero.
    pub fn space_stats(&self) -> IndexSpaceStats {
        let run = &self.run;
        // Only a touched group can hold a peak.
        let residual_bits = (run.touched.iter())
            .map(|&g| run.doc[g as usize].peak_bits)
            .sum();
        let trie_bits = if self.index.subs.is_empty() {
            0
        } else {
            run.peak_trie_bits
        };
        IndexSpaceStats {
            shared_trie_bits: trie_bits,
            residual_bits,
            total_bits: trie_bits + residual_bits,
            peak_records: run.peak_records,
            peak_instances: run.peak_instances,
            activations: run.activations,
            events: run.events,
            groups: self.index.groups.len(),
            residual_pool: self.index.residuals.len(),
        }
    }
}

/// Adds `bits` to `out`, split evenly across the `k` bank indices
/// `sharers` yields; the integer remainder goes one extra bit apiece to
/// the lowest-ranked sharers, so the split sums back to `bits` exactly.
/// An empty sharer set only arises when `bits` is already zero (a bank
/// with no trie never pushes a record).
fn split_evenly(bits: u64, k: usize, sharers: impl Iterator<Item = usize>, out: &mut [u64]) {
    if k == 0 || bits == 0 {
        return;
    }
    let (base, rem) = (bits / k as u64, bits % k as u64);
    for (rank, i) in sharers.enumerate() {
        debug_assert!(rank < k);
        out[i] += base + u64::from((rank as u64) < rem);
    }
}
