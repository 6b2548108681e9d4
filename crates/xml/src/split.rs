//! Stream-segment utilities used by the communication-complexity reductions.
//!
//! The lower-bound proofs (§3.2, §4, §7) cut a document's event stream into
//! consecutive segments (`α`, `β`, `γ`, …) at positions defined relative to
//! specific events, and then splice segments from *different* documents back
//! together (`αT ◦ βT'`). A segment is a slice of the stream; this module
//! provides the splice and the one cut the reductions compute, an element's
//! matching end tag.

use crate::event::Event;

/// Concatenates stream segments (the paper's `α ◦ β` operation).
pub fn splice(segments: &[&[Event]]) -> Vec<Event> {
    segments.concat()
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

    /// Index of the first event equal to `event`: where a test cuts.
    fn first(events: &[Event], event: &Event) -> Option<usize> {
        events.iter().position(|e| e == event)
    }

    #[test]
    fn segmentation_round_trip() {
        let events = parse("<a><b>6</b><c/></a>").unwrap();
        let rejoined = splice(&[&events[..3], &events[3..6], &events[6..]]);
        assert_eq!(rejoined, events);
    }

    #[test]
    fn theorem_4_2_example_splice() {
        // αT = 〈a〉〈b〉6〈/b〉〈c〉〈f/〉 and βT = 〈e/〉〈/c〉〈/a〉 for T = {xb, xf}.
        let dt = parse("<a><b>6</b><c><f/><e/></c></a>").unwrap();
        // Cut right after 〈/f〉.
        let f_end = first(&dt, &Event::end("f")).unwrap();
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
        let cut_a = first(&d_t, &Event::end("f")).unwrap() + 1;
        let cut_b = first(&d_t2, &Event::start("f")).unwrap();
        let spliced = splice(&[&d_t[..cut_a], &d_t2[cut_b..]]);
        assert!(is_well_formed(&spliced));
        let fs = spliced
            .iter()
            .filter(|e| matches!(e, Event::StartElement { name, .. } if name == "f"))
            .count();
        assert_eq!(fs, 2);
        let e = first(&spliced, &Event::start("e"));
        assert!(e.is_none() || e.unwrap() > cut_a);
    }

    #[test]
    fn matching_end_finds_balanced_close() {
        let events = parse("<a><b><b/></b><c/></a>").unwrap();
        let outer_b = first(&events, &Event::start("b")).unwrap();
        let end = matching_end(&events, outer_b).unwrap();
        assert_eq!(events[end], Event::end("b"));
        // It must be the *outer* b's end: inner <b/> contributes two events.
        assert_eq!(end, outer_b + 3);
    }

    #[test]
    fn element_range_covers_subtree() {
        let events = parse("<a><b><c/><d/></b></a>").unwrap();
        let b = first(&events, &Event::start("b")).unwrap();
        let sub: Vec<_> = events[b..=matching_end(&events, b).unwrap()].to_vec();
        assert_eq!(sub.first(), Some(&Event::start("b")));
        assert_eq!(sub.last(), Some(&Event::end("b")));
        assert_eq!(sub.len(), 6);
    }
}
