//! Stream-segment utilities used by the communication-complexity reductions.
//!
//! The lower-bound proofs (§3.2, §4, §7) cut a document's event stream into
//! consecutive segments (`α`, `β`, `γ`, …) at positions defined relative to
//! specific events, and then splice segments from *different* documents back
//! together (`αT ◦ βT'`). This module provides those cut/splice operations at
//! event granularity, plus a [`Segmentation`] type that remembers the cut
//! points.

use crate::event::Event;

/// A partition of an event stream into `k` consecutive segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segmentation {
    /// The underlying events.
    pub events: Vec<Event>,
    /// Cut points: `cuts[i]` is the index where segment `i+1` begins.
    /// Always sorted, each in `0..=events.len()`.
    pub cuts: Vec<usize>,
}

impl Segmentation {
    /// Creates a segmentation with the given cut points (indices into
    /// `events`). Cut points are sorted and deduplicated.
    pub fn new(events: Vec<Event>, mut cuts: Vec<usize>) -> Self {
        cuts.sort_unstable();
        cuts.dedup();
        assert!(
            cuts.iter().all(|&c| c <= events.len()),
            "cut point out of range"
        );
        Segmentation { events, cuts }
    }

    /// Number of segments (`cuts.len() + 1`).
    pub fn segment_count(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Returns segment `i` as a slice.
    pub fn segment(&self, i: usize) -> &[Event] {
        let start = if i == 0 { 0 } else { self.cuts[i - 1] };
        let end = if i == self.cuts.len() {
            self.events.len()
        } else {
            self.cuts[i]
        };
        &self.events[start..end]
    }

    /// All segments in order.
    pub fn segments(&self) -> Vec<&[Event]> {
        (0..self.segment_count()).map(|i| self.segment(i)).collect()
    }
}

/// Concatenates stream segments (the paper's `α ◦ β` operation).
pub fn splice(segments: &[&[Event]]) -> Vec<Event> {
    let total = segments.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total);
    for s in segments {
        out.extend_from_slice(s);
    }
    out
}

/// Finds the index of the `n`-th (0-based) event satisfying `pred`.
pub(crate) fn find_nth(
    events: &[Event],
    n: usize,
    mut pred: impl FnMut(&Event) -> bool,
) -> Option<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| pred(e))
        .nth(n)
        .map(|(i, _)| i)
}

/// Index of the first `startElement(name)` event.
pub fn first_start(events: &[Event], name: &str) -> Option<usize> {
    find_nth(
        events,
        0,
        |e| matches!(e, Event::StartElement { name: n, .. } if n == name),
    )
}

/// Index of the first `endElement(name)` event.
pub fn first_end(events: &[Event], name: &str) -> Option<usize> {
    find_nth(
        events,
        0,
        |e| matches!(e, Event::EndElement { name: n } if n == name),
    )
}

/// Given the index of a `startElement`, returns the index of its matching
/// `endElement` (the event that closes the same element instance).
pub fn matching_end(events: &[Event], start: usize) -> Option<usize> {
    if !events.get(start)?.is_start() {
        return None;
    }
    let mut depth = 0usize;
    for (i, e) in events.iter().enumerate().skip(start) {
        match e {
            Event::StartElement { .. } => depth += 1,
            Event::EndElement { .. } => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::wellformed::is_well_formed;

    #[test]
    fn segmentation_round_trip() {
        let events = parse("<a><b>6</b><c/></a>").unwrap();
        let seg = Segmentation::new(events.clone(), vec![3, 6]);
        assert_eq!(seg.segment_count(), 3);
        let rejoined = splice(&seg.segments());
        assert_eq!(rejoined, events);
    }

    #[test]
    fn theorem_4_2_example_splice() {
        // αT = 〈a〉〈b〉6〈/b〉〈c〉〈f/〉 and βT = 〈e/〉〈/c〉〈/a〉 for T = {xb, xf}.
        let dt = parse("<a><b>6</b><c><f/><e/></c></a>").unwrap();
        // Cut right after 〈/f〉.
        let f_end = first_end(&dt, "f").unwrap();
        let alpha = &dt[..=f_end];
        let beta = &dt[f_end + 1..];
        let doc = splice(&[alpha, beta]);
        assert_eq!(doc, dt);
        assert!(is_well_formed(&doc));
    }

    #[test]
    fn cross_splice_duplicates_elements() {
        // D_{T,T'} from the paper: 〈a〉〈b〉6〈/b〉〈c〉〈f/〉〈f/〉〈/c〉〈/a〉.
        let d_t = parse("<a><b>6</b><c><f/><e/></c></a>").unwrap();
        let d_t2 = parse("<a><b>6</b><c><f/><e/></c></a>").unwrap();
        // αT ends after 〈/f〉 of the first doc; βT' begins at the *start* of
        // 〈f/〉 in the second doc — splicing yields two f's and no e.
        let cut_a = first_end(&d_t, "f").unwrap() + 1;
        let cut_b = first_start(&d_t2, "f").unwrap();
        let spliced = splice(&[&d_t[..cut_a], &d_t2[cut_b..]]);
        assert!(is_well_formed(&spliced));
        let fs = spliced
            .iter()
            .filter(|e| matches!(e, Event::StartElement { name, .. } if name == "f"))
            .count();
        assert_eq!(fs, 2);
        assert!(
            first_start(&spliced, "e").is_none() || first_start(&spliced, "e").unwrap() > cut_a
        );
    }

    #[test]
    fn matching_end_finds_balanced_close() {
        let events = parse("<a><b><b/></b><c/></a>").unwrap();
        let outer_b = first_start(&events, "b").unwrap();
        let end = matching_end(&events, outer_b).unwrap();
        assert_eq!(events[end], Event::end("b"));
        // It must be the *outer* b's end: inner <b/> contributes two events.
        assert_eq!(end, outer_b + 3);
    }

    #[test]
    fn element_range_covers_subtree() {
        let events = parse("<a><b><c/><d/></b></a>").unwrap();
        let b = first_start(&events, "b").unwrap();
        let sub: Vec<_> = events[b..=matching_end(&events, b).unwrap()].to_vec();
        assert_eq!(sub.first(), Some(&Event::start("b")));
        assert_eq!(sub.last(), Some(&Event::end("b")));
        assert_eq!(sub.len(), 6);
    }

    #[test]
    fn find_nth_counts_correctly() {
        let events = parse("<a><x/><x/><x/></a>").unwrap();
        let second = find_nth(
            &events,
            1,
            |e| matches!(e, Event::StartElement { name, .. } if name == "x"),
        )
        .unwrap();
        assert_eq!(events[second], Event::start("x"));
        assert_eq!(second, 4);
    }
}
