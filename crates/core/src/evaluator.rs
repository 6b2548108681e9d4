//! The one event protocol of the §8 machine, and the one feed that
//! drives it from a tokenizer.

use crate::reporter::MatchSink;
use fx_xml::{EventSink, Horizon, Span, Stretch, SymEvent, Symbols};
use std::sync::Arc;

/// An evaluator of one query or a bank of them over one document at a
/// time: [`StreamFilter`](crate::StreamFilter),
/// [`MultiFilter`](crate::MultiFilter) and
/// [`IndexedBank`](crate::IndexedBank). Interned events enter one only
/// through [`Evaluator::event`]; a tokenizer hands them over through a
/// [`HorizonFeed`]. Sealed: its horizon half stays inside this crate.
pub trait Evaluator: sealed::Horizoned {
    /// The symbol table the node tests were compiled against: hand it
    /// to the tokenizer (`fx_xml::StreamingParser::with_symbols`) and
    /// its events arrive interned, with no per-event name lookup.
    fn symbols(&self) -> &Arc<Symbols>;

    /// Takes one interned event (syms from [`Evaluator::symbols`]) with
    /// its source span. Each match the event confirms goes to `sink`
    /// before the call returns, stamped with the bank index of the query
    /// that selected it (0 for a lone filter); a filtering evaluator
    /// never calls the sink. Streams carry the full document framing,
    /// `StartDocument` … `EndDocument`.
    fn event(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink);
}

pub(crate) mod sealed {
    use fx_xml::Horizon;

    /// An evaluator's *horizon*: how deep an element can still change
    /// its state, and which names can below that. The defaults say "no
    /// horizon", so a tokenizer asks nothing, passes nothing over and
    /// never calls `sync`; only the lone filter overrides them.
    pub trait Horizoned {
        /// Whether `horizon` can ever be `Some`.
        const HAS_HORIZON: bool = false;

        /// The horizon, beside the set of the lengths of the names it
        /// sees (bit `min(len, 63)` each).
        fn horizon(&self) -> Option<(Horizon, u64)> {
            None
        }

        /// Whether a start tag named `name` below the horizon matters.
        fn sees(&self, _name: &str) -> bool {
            true
        }

        /// Catches up with `skipped` undelivered events, which left the
        /// stream at `level` / `ordinal` after climbing to `deepest`.
        fn sync(&mut self, _level: usize, _ordinal: u64, _skipped: u64, _deepest: usize) {}
    }
}

/// An [`Evaluator`] as a tokenizer's [`EventSink`]: each delivered event
/// goes to [`Evaluator::event`], its matches to `matches`, and is
/// counted. The lone filter lends the tokenizer its horizon, so what
/// lies past it is passed over and each stretch's position handed back:
/// verdict, matches and [`SpaceStats`](crate::SpaceStats) are those of
/// the filter fed every event. A bank has no horizon; it is asked
/// nothing and sees every event. Either way `delivered() + passed()` is
/// the document's event count.
pub struct HorizonFeed<'a, E: Evaluator> {
    eval: &'a mut E,
    matches: &'a mut dyn MatchSink,
    /// The lengths of the names the horizon in force sees: most start
    /// tags below it are refused on their length alone, without walking
    /// the frontier — 97 % of those asked on the `xmark-single` corpus,
    /// where it read 1–3 % more `mb_s` than walking the frontier for
    /// every one (17 of 20 alternating pairs, x86-64, 2 vCPUs).
    name_lengths: u64,
    delivered: u64,
    passed: u64,
}

impl<'a, E: Evaluator> HorizonFeed<'a, E> {
    /// Feeds `eval`, its matches going to `matches`.
    pub fn new(eval: &'a mut E, matches: &'a mut dyn MatchSink) -> Self {
        HorizonFeed {
            eval,
            matches,
            name_lengths: 0,
            delivered: 0,
            passed: 0,
        }
    }

    /// Events delivered to the evaluator so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Events passed over so far, each counted as the event it would
    /// have been.
    pub fn passed(&self) -> u64 {
        self.passed
    }
}

impl<E: Evaluator> EventSink for HorizonFeed<'_, E> {
    const HAS_HORIZON: bool = E::HAS_HORIZON;

    #[inline]
    fn event(&mut self, event: SymEvent<'_>, span: Span) {
        self.delivered += 1;
        self.eval.event(event, span, self.matches);
    }

    #[inline]
    fn horizon(&mut self) -> Option<Horizon> {
        let (horizon, name_lengths) = self.eval.horizon()?;
        self.name_lengths = name_lengths;
        Some(horizon)
    }

    /// Asked only under a horizon this feed returned, which no event
    /// since has moved, so `name_lengths` is that horizon's.
    #[inline]
    fn sees(&self, name: &str) -> bool {
        self.name_lengths >> name.len().min(63) & 1 == 1 && self.eval.sees(name)
    }

    fn passed_over(&mut self, s: Stretch) {
        self.passed += s.events;
        self.eval.sync(s.level, s.ordinal, s.events, s.deepest);
    }
}
