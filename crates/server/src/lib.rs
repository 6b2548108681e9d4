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
//! ## Subscribe / unsubscribe: churn without rebuilds
//!
//! [`ServerHandle::subscribe`] and [`ServerHandle::unsubscribe`] ride the
//! mutable bank's incremental paths (`IndexedBank::subscribe` /
//! `unsubscribe`): a new query extends the shared-prefix trie in
//! O(|query|) and reuses pooled residual automata whenever its canonical
//! remainder is already compiled; a withdrawal tombstones one slot.
//! Neither ever recompiles the bank — `residual_builds()` stays flat
//! under churn over known query shapes — so subscriptions stay cheap at
//! any bank size. Churn commands are queued and applied by each worker
//! **at document boundaries**: a subscription is guaranteed to see every
//! document published after `subscribe` returned. Worker 0's bank
//! decides each command (accept or reject, which id); the other workers
//! apply the same commands in the same order, so all banks agree; each
//! worker's parser picks a new query's names up at its next document.
//!
//! ## Backpressure
//!
//! Two bounded queues, two different policies:
//!
//! - **Documents** ([`ServerHandle::publish`]): the publisher *blocks*
//!   when [`ServerConfig::doc_queue_capacity`] documents are pending —
//!   dissemination is lossless upstream, the stream source slows down.
//! - **Deliveries** (per subscriber): each subscription has a bounded
//!   mailbox ([`ServerConfig::mailbox_capacity`]). A stalled subscriber
//!   never blocks a worker or its peers: matches that do not fit are
//!   *dropped for that subscriber only* and counted on its lag counter
//!   ([`Subscription::dropped`]), the paper-appropriate policy for live
//!   dissemination (a slow consumer falls behind; the stream does not).
//!   A subscriber that went away entirely (receiver dropped) is detected
//!   on delivery, skipped from then on, and auto-unsubscribed by the next
//!   churn or [`ServerHandle::stats`] call.
//!
//! ## Compaction policy
//!
//! Tombstoned slots accumulate until the bank's
//! [`fx_core::CompactionPolicy`] (set from [`ServerConfig::compaction`])
//! triggers a rebuild of the flat trie/slot arrays — an O(live queries)
//! fold that moves `Arc`s and copies records but compiles nothing.
//! [`ServerHandle::compact`] forces one regardless of thresholds.
//! [`SubscriptionId`]s are stable across compaction; only internal slot
//! numbers move.

#![warn(missing_docs)]

mod inbox;
mod server;
mod sub;

pub use fx_core::{CompactionPolicy, SubscriptionId, UnsupportedQuery};
pub use server::{DisseminationServer, ServerHandle, ServerStats};
pub use sub::{Delivery, Subscription};

use fx_xpath::Query;
use std::sync::Arc;

/// Construction-time knobs for [`DisseminationServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Documents the publish queue holds before
    /// [`ServerHandle::publish`] blocks (upstream backpressure).
    pub doc_queue_capacity: usize,
    /// Per-subscriber mailbox size: confirmed matches a subscription can
    /// lag behind before further matches are dropped for it (and counted
    /// on [`Subscription::dropped`]).
    pub mailbox_capacity: usize,
    /// When unsubscribe tombstones fold into a rebuilt bank; see
    /// [`fx_core::CompactionPolicy`].
    pub compaction: CompactionPolicy,
    /// Worker threads (at least one). Each owns a bank, a parser and a
    /// document queue of [`ServerConfig::doc_queue_capacity`];
    /// documents go round-robin in publish order and deliveries come
    /// back in that order. More than one pays off when evaluating a
    /// document costs more than handing it over.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            doc_queue_capacity: 64,
            mailbox_capacity: 256,
            compaction: CompactionPolicy::default(),
            workers: 1,
        }
    }
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
