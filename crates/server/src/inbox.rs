//! The mailbox between handles and one worker thread: an unbounded
//! command queue plus a *bounded* document queue whose fullness blocks
//! publishers.

use crate::broker::Command;
use crate::server::{Doc, Shared};
use crate::ServerError;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Worker side only: handle-side callers get [`ServerError::Closed`].
const POISONED: &str = "a thread panicked while holding this inbox's lock";

/// All pending commands, or one document (see [`Inbox::take_work`]).
pub(crate) type WorkBatch = (Vec<Command<Shared>>, Option<Doc>);

pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    /// Signalled for the worker when work arrives.
    work: Condvar,
    /// Publisher-side: signalled when a document slot frees up.
    space: Condvar,
}

struct InboxState {
    cmds: VecDeque<Command<Shared>>,
    docs: VecDeque<Doc>,
    doc_cap: usize,
    shutdown: bool,
    /// `cmds` holds a command a handle waits on.
    awaited: bool,
}

impl Inbox {
    pub(crate) fn new(doc_cap: usize) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                cmds: VecDeque::new(),
                docs: VecDeque::new(),
                doc_cap: doc_cap.max(1),
                shutdown: false,
                awaited: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Queues a command unless the server is shutting down. Only a
    /// command a handle waits on wakes the worker: churn takes effect at
    /// the next document, and whatever brings one — a publish, a
    /// barrier, the close — wakes it and hands the churn over first.
    pub(crate) fn command(&self, cmd: Command<Shared>) -> Result<(), ServerError> {
        let mut st = self.state.lock().map_err(|_| ServerError::Closed)?;
        if st.shutdown {
            return Err(ServerError::Closed);
        }
        let awaited = cmd.awaited();
        st.cmds.push_back(cmd);
        if awaited {
            st.awaited = true;
            self.work.notify_one();
        }
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

    /// Worker side: blocks for work, then takes *all* pending commands —
    /// or, when none are queued, one document; never both, since the
    /// stats barrier drains the document queue itself. Churn alone is not
    /// work: it waits for a document, an awaited command or the close.
    /// `None` once the server is shut down and fully drained.
    pub(crate) fn take_work(&self) -> Option<WorkBatch> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if !st.cmds.is_empty() && (st.awaited || !st.docs.is_empty() || st.shutdown) {
                st.awaited = false;
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

    /// Non-blocking: pops one pending document (the stats barrier).
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

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::SubscriptionId;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Duration;

    /// Closes the inbox however the test ends, so the scope's worker
    /// thread always exits.
    struct CloseOnDrop<'a>(&'a Inbox);

    impl Drop for CloseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }

    /// Churn alone leaves an idle worker asleep; the next document, or
    /// the close, hands it over first.
    #[test]
    fn churn_waits_for_the_next_document() {
        let inbox = &Inbox::new(4);
        let churn = || Command::Unsubscribe(SubscriptionId::from_raw(0));
        inbox.command(churn()).unwrap();
        std::thread::scope(|scope| {
            let (tx, rx) = channel();
            scope.spawn(move || {
                while let Some((cmds, doc)) = inbox.take_work() {
                    tx.send((cmds.len(), doc.map(|(seq, _)| seq))).unwrap();
                }
            });
            let _close = CloseOnDrop(inbox);
            let idle = rx.recv_timeout(Duration::from_millis(50));
            assert!(idle.is_err(), "churn alone is not work");
            inbox.publish((7, Arc::from(&b"<a/>"[..]))).unwrap();
            assert_eq!(rx.recv().unwrap(), (1, None));
            assert_eq!(rx.recv().unwrap(), (0, Some(7)));
            inbox.command(churn()).unwrap();
            inbox.close();
            assert_eq!(rx.recv().unwrap(), (1, None));
            assert!(rx.recv().is_err(), "drained and closed");
        });
    }
}
