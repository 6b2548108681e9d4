//! The subscriber-facing half: [`Subscription`] mailboxes and the
//! [`Delivery`] records the workers fan out.

use fx_core::SubscriptionId;
use fx_xml::Span;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// One confirmed match, delivered to the subscriber it belongs to. A
/// document's deliveries are released together when the document
/// finishes, documents in [`crate::ServerHandle::publish`] order — so a
/// subscriber reads an ascending `doc_seq`, however many workers ran.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The subscription this match belongs to.
    pub subscription: SubscriptionId,
    /// 0-based sequence number of the document within the server's
    /// stream (in [`crate::ServerHandle::publish`] order).
    pub doc_seq: u64,
    /// Document-order ordinal of the matched element among the
    /// document's `startElement` events.
    pub ordinal: u64,
    /// Source byte range of the matched element (start tag through end
    /// tag) within [`Delivery::document`].
    pub span: Span,
    /// The published document the match came from (shared, not copied:
    /// every delivery of a document clones one `Arc`).
    pub document: Arc<[u8]>,
}

impl Delivery {
    /// The matched element's source text, sliced out of the document.
    /// Only the span's bytes are validated, so a call costs the
    /// fragment's length, not the document's. `None` if the span is out
    /// of range or its bytes are not UTF-8; an empty span yields
    /// `Some("")`.
    pub fn fragment(&self) -> Option<&str> {
        let start = usize::try_from(self.span.start).ok()?;
        let end = usize::try_from(self.span.end).ok()?;
        std::str::from_utf8(self.document.get(start..end)?).ok()
    }
}

/// The lag accounting shared between the server and one
/// [`Subscription`]. Deliberately *without* the delivery sender: the
/// server is the sender's only owner, so withdrawing a subscription
/// disconnects its mailbox and a blocked [`Subscription::recv`] wakes
/// with `None` instead of waiting forever.
#[derive(Default)]
pub(crate) struct SubShared {
    pub(crate) delivered: AtomicU64,
    pub(crate) dropped: AtomicU64,
    /// Deliveries in the mailbox and not yet received: the server
    /// reserves a slot before each send, the subscriber releases one per
    /// delivery it takes.
    pub(crate) backlog: AtomicUsize,
}

/// A live standing query: the receiving end of a delivery mailbox that
/// holds at most [`crate::ServerConfig::mailbox_capacity`] unread
/// matches, allocated as they queue, plus its identity and lag counters.
///
/// Dropping a `Subscription` without unsubscribing is safe: the server
/// notices the dead mailbox on the next delivery attempt, stops
/// delivering to it at once, and withdraws the query from the banks at
/// the next churn or [`crate::ServerHandle::stats`] call (or closes the
/// books at shutdown). Explicit [`crate::ServerHandle::unsubscribe`]
/// frees the slot immediately.
pub struct Subscription {
    pub(crate) id: SubscriptionId,
    pub(crate) rx: Receiver<Delivery>,
    pub(crate) shared: Arc<SubShared>,
}

impl Subscription {
    /// The stable identity of this subscription (survives compaction;
    /// never reused by the server).
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Blocks until the next delivery. `None` once the subscription was
    /// withdrawn (or the server shut down) *and* the mailbox is drained.
    pub fn recv(&self) -> Option<Delivery> {
        self.release(self.rx.recv().ok())
    }

    /// [`Subscription::recv`] with a deadline; `None` on timeout too.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        self.release(self.rx.recv_timeout(timeout).ok())
    }

    /// Non-blocking receive: `None` when the mailbox is currently empty
    /// or the subscription is finished.
    pub fn try_recv(&self) -> Option<Delivery> {
        self.release(self.rx.try_recv().ok())
    }

    /// Frees the mailbox slot a received delivery held.
    fn release(&self, received: Option<Delivery>) -> Option<Delivery> {
        if received.is_some() {
            self.shared.backlog.fetch_sub(1, Ordering::Relaxed);
        }
        received
    }

    /// Matches delivered into the mailbox so far (including ones not yet
    /// received by the consumer).
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.load(Ordering::Relaxed)
    }

    /// The lag counter: matches dropped because this subscriber's
    /// mailbox was full when they were confirmed. Monotone; a nonzero
    /// value means the consumer is (or was) slower than the stream.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("delivered", &self.delivered())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only the span's bytes are validated: bytes that are not UTF-8
    /// outside it do not hide the fragment. Out of range is `None`, an
    /// empty span the empty string.
    #[test]
    fn fragment_validates_only_the_span() {
        let doc = b"<r><a>x</a>\xff\xfe</r>";
        let fragment = |start, end| {
            Delivery {
                subscription: SubscriptionId::from_raw(0),
                doc_seq: 0,
                ordinal: 0,
                span: Span::new(start, end),
                document: Arc::from(&doc[..]),
            }
            .fragment()
            .map(str::to_owned)
        };
        assert_eq!(fragment(3, 11).as_deref(), Some("<a>x</a>"));
        assert_eq!(fragment(3, 12), None, "the span takes 0xff");
        assert_eq!(fragment(3, 99), None, "past the end");
        assert_eq!(fragment(7, 3), None, "start past end");
        assert_eq!(fragment(0, 0).as_deref(), Some(""));
        assert_eq!(fragment(4, 4).as_deref(), Some(""));
    }
}
