//! # fx-server
//!
//! The paper's headline use case, packaged as a service: **selective
//! dissemination of information** (XML SDI, §1) — a long-lived process
//! holding thousands of standing profile queries, matching every
//! document of an unbounded stream against all of them in one pass, and
//! fanning confirmed matches out to the subscribers they belong to.
//!
//! [`DisseminationServer`] runs [`ServerConfig::workers`] worker threads
//! (one by default), each owning its own shared-prefix
//! [`fx_core::IndexedBank`] and a warm, reusable lookup-only parser over
//! one shared symbol table. Documents are dealt to the workers
//! round-robin in publish order; a document's deliveries are released
//! together when it finishes, and documents are released in publish
//! order, so every subscriber reads an ascending `doc_seq` whatever the
//! worker count. Any number of [`ServerHandle`] clones feed the server
//! concurrently from other threads:
//!
//! ```
//! use fx_server::{DisseminationServer, ServerConfig};
//! use fx_xpath::parse_query;
//!
//! let server = DisseminationServer::start(ServerConfig::default());
//! let handle = server.handle();
//!
//! let sub = handle.subscribe(parse_query("//item[price]/name").unwrap()).unwrap();
//! handle.publish_str("<cat><item><price>9</price><name>fx</name></item></cat>").unwrap();
//!
//! let delivery = sub.recv().unwrap();           // streamed, not polled
//! assert_eq!(delivery.subscription, sub.id());
//! assert_eq!(delivery.fragment(), Some("<name>fx</name>"));
//!
//! handle.unsubscribe(sub.id()).unwrap();
//! server.shutdown();
//! ```
//!
//! ## Churn without rebuilds, decided where it is called
//!
//! [`ServerHandle::subscribe`] and [`ServerHandle::unsubscribe`] ride the
//! bank's incremental paths: a new query extends the shared-prefix trie
//! in O(|query|) and reuses pooled residual automata whenever its
//! canonical remainder is already compiled; a withdrawal tombstones one
//! slot. Neither recompiles the bank (`residual_builds` stays flat over
//! known query shapes). The calling handle decides each call — a
//! rejected query is refused before `subscribe` returns, ids are dense,
//! nothing is delivered once `unsubscribe` returns — and queues one
//! identical command per worker without waiting for any. Every worker
//! applies them in that order before its next document, so a
//! subscription sees every document published after `subscribe`
//! returned. These rules live in one thread-free core (`broker.rs`),
//! which the crate's tests check against a sequential specification
//! over every interleaving of small scripts.
//!
//! ## Backpressure
//!
//! - **Documents** ([`ServerHandle::publish`]): the publisher *blocks*
//!   when [`ServerConfig::doc_queue_capacity`] documents are pending —
//!   dissemination is lossless upstream, the stream source slows down.
//! - **Deliveries**: a mailbox holds at most
//!   [`ServerConfig::mailbox_capacity`] unread matches, allocated as they
//!   queue. A stalled subscriber never blocks a worker or its peers:
//!   matches that do not fit are *dropped for that subscriber only* and
//!   counted ([`Subscription::dropped`]) — a slow consumer falls behind;
//!   the stream does not. A subscriber that went away (receiver dropped)
//!   is found on delivery, skipped from then on, and auto-unsubscribed
//!   by the next churn or [`ServerHandle::stats`] call.
//!
//! ## Compaction
//!
//! Once a bank holds at least 16 tombstoned slots and they fill more than
//! half its slot table, it rebuilds its flat trie/slot arrays — an
//! O(live queries) fold that moves `Arc`s but compiles nothing.
//! [`ServerHandle::compact`] forces one. [`SubscriptionId`]s are stable
//! across compaction; only internal slot numbers move.

#![warn(missing_docs)]

mod broker;
mod inbox;
mod server;
mod sub;

pub use fx_core::{SubscriptionId, UnsupportedQuery};
pub use server::{DisseminationServer, ServerHandle};
pub use sub::{Delivery, Subscription};

use fx_xpath::Query;
use std::sync::Arc;

/// Construction-time knobs for [`DisseminationServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Documents the publish queue holds before
    /// [`ServerHandle::publish`] blocks (upstream backpressure).
    pub doc_queue_capacity: usize,
    /// Per-subscriber mailbox bound: at most this many unread matches,
    /// allocated as they queue (nothing is reserved up front). A
    /// subscription that lags by this many has further matches dropped
    /// for it (and counted on [`Subscription::dropped`]).
    pub mailbox_capacity: usize,
    /// Worker threads (at least one), each with a bank, a parser and a
    /// document queue; documents go round-robin, deliveries come back in
    /// publish order. More than one pays off when evaluating a document
    /// costs more than handing it over.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            doc_queue_capacity: 64,
            mailbox_capacity: 256,
            workers: 1,
        }
    }
}

/// A cumulative snapshot of the server's activity, taken at a document
/// boundary by [`ServerHandle::stats`], a barrier for everything queued
/// before it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Documents fully processed.
    pub documents: u64,
    /// Documents rejected by the parser; the stream goes on.
    pub parse_errors: u64,
    /// Matches delivered into subscriber mailboxes.
    pub deliveries: u64,
    /// Matches dropped at a full mailbox (every lag counter's sum).
    pub dropped_deliveries: u64,
    /// Subscriptions accepted over the server's lifetime.
    pub subscribes: u64,
    /// Subscriptions withdrawn (explicit and auto-unsubscribed).
    pub unsubscribes: u64,
    /// Currently live subscriptions.
    pub live_subscriptions: usize,
    /// Subscribers withdrawn after their receiver was dropped.
    pub auto_unsubscribes: u64,
    /// Bank compactions performed (automatic and explicit).
    pub compactions: u64,
    /// Residual automata compiled — flat under churn over known shapes.
    pub residual_builds: u64,
}

/// Why a [`ServerHandle`] operation could not be carried out.
#[derive(Debug)]
pub enum ServerError {
    /// The server has shut down (or is shutting down, or closed itself
    /// after a thread panicked holding one of its locks); no further
    /// commands or documents are accepted.
    Closed,
    /// The query is outside the engine's supported fragment (or not
    /// reportable); nothing was registered.
    Unsupported(UnsupportedQuery),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Closed => write!(f, "dissemination server is shut down"),
            ServerError::Unsupported(e) => write!(f, "unsupported query: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Unsupported(e) => Some(e),
            ServerError::Closed => None,
        }
    }
}

// `fxbench/` names a second server and implements its `Ingress` trait
// for both handle types, so these cannot be aliases; they forward what
// it calls and nothing else. They go when its `Server::ShardedW1` does.
#[doc(hidden)]
pub struct ShardedServer(DisseminationServer);
#[doc(hidden)]
pub struct ShardedHandle(ServerHandle);

#[doc(hidden)]
impl ShardedServer {
    pub fn start(config: ServerConfig, workers: usize) -> ShardedServer {
        let config = ServerConfig { workers, ..config };
        ShardedServer(DisseminationServer::start(config))
    }
    pub fn handle(&self) -> ShardedHandle {
        ShardedHandle(self.0.handle())
    }
    pub fn shutdown(self) -> ServerStats {
        self.0.shutdown()
    }
}

#[doc(hidden)]
impl ShardedHandle {
    pub fn publish(&self, doc: impl Into<Arc<[u8]>>) -> Result<(), ServerError> {
        self.0.publish(doc)
    }
    pub fn stats(&self) -> Result<ServerStats, ServerError> {
        self.0.stats()
    }
    pub fn subscribe(&self, query: Query) -> Result<Subscription, ServerError> {
        self.0.subscribe(query)
    }
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<bool, ServerError> {
        self.0.unsubscribe(id)
    }
}
