//! The mailbox between handles and one worker thread: an unbounded
//! command queue plus a *bounded* document queue whose fullness blocks
//! publishers.

use crate::server::{Command, Doc};
use crate::ServerError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Worker side only: handle-side callers get [`ServerError::Closed`].
const POISONED: &str = "a thread panicked while holding this inbox's lock";

/// One unit of worker work: all pending commands, or one document —
/// never both (commands apply before documents, and the stats barrier
/// depends on draining the document queue itself).
pub(crate) type WorkBatch = (Vec<Command>, Option<Doc>);

pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    /// Worker-side: signalled when work (commands, documents, shutdown)
    /// arrives.
    work: Condvar,
    /// Publisher-side: signalled when a document slot frees up.
    space: Condvar,
}

struct InboxState {
    cmds: VecDeque<Command>,
    docs: VecDeque<Doc>,
    doc_cap: usize,
    shutdown: bool,
}

impl Inbox {
    pub(crate) fn new(doc_cap: usize) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                cmds: VecDeque::new(),
                docs: VecDeque::new(),
                doc_cap: doc_cap.max(1),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Queues a command unless the server is shutting down.
    pub(crate) fn command(&self, cmd: Command) -> Result<(), ServerError> {
        let mut st = self.state.lock().map_err(|_| ServerError::Closed)?;
        if st.shutdown {
            return Err(ServerError::Closed);
        }
        st.cmds.push_back(cmd);
        self.work.notify_one();
        Ok(())
    }

    /// Queues a document, blocking while the queue is at capacity.
    pub(crate) fn publish(&self, doc: Doc) -> Result<(), ServerError> {
        let mut st = self.state.lock().map_err(|_| ServerError::Closed)?;
        while st.docs.len() >= st.doc_cap && !st.shutdown {
            st = self.space.wait(st).map_err(|_| ServerError::Closed)?;
        }
        if st.shutdown {
            return Err(ServerError::Closed);
        }
        st.docs.push_back(doc);
        self.work.notify_one();
        Ok(())
    }

    /// Worker side: blocks for work, then takes *all* pending commands
    /// — or, when none are queued, one document. Commands and documents
    /// are never batched together: the stats barrier drains the document
    /// queue itself, so it must still hold whatever was published before
    /// it. Returns `None` when the server is shut down and fully
    /// drained.
    pub(crate) fn take_work(&self) -> Option<WorkBatch> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if !st.cmds.is_empty() {
                return Some((st.cmds.drain(..).collect(), None));
            }
            if let Some(doc) = st.docs.pop_front() {
                self.space.notify_one();
                return Some((Vec::new(), Some(doc)));
            }
            if st.shutdown {
                return None;
            }
            st = self.work.wait(st).expect(POISONED);
        }
    }

    /// Non-blocking: pops one pending document if there is one (used by
    /// the stats barrier to drain the queue).
    pub(crate) fn take_doc(&self) -> Option<Doc> {
        let mut st = self.state.lock().expect(POISONED);
        let doc = st.docs.pop_front();
        if doc.is_some() {
            self.space.notify_one();
        }
        doc
    }

    /// Callers close a server *because* a lock was poisoned, so this one
    /// recovers the guard: a flag store cannot leave the queues invalid.
    pub(crate) fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.work.notify_all();
        self.space.notify_all();
    }
}
