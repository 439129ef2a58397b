//! The server's event loop building blocks: a readiness queue, mailbox
//! frame queues, and a versioned condition signal.
//!
//! The pre-reactor server spawned one handler thread per client session
//! and polled shared state with 5 ms sleeps; neither survives past a few
//! hundred sites. This module provides the mio-style primitives (built on
//! `std::sync` only — external deps are vendored and no epoll binding is
//! available offline) that replace both:
//!
//! - [`ReadyQueue`] — the reactor's readiness list. Each session owns a
//!   token; whenever its mailbox gains a frame (or closes) the token is
//!   enqueued exactly once. A single reactor thread blocks on
//!   [`ReadyQueue::pop`] and drains ready sessions, so server-side cost
//!   is one thread regardless of fleet size.
//! - [`FrameQueue`] — a session's mailbox: an in-process frame channel
//!   whose producer side can notify a `(ReadyQueue, token)` pair. The
//!   [`QueueTx`]/[`QueueRx`] wrappers adapt it to the
//!   [`crate::transport::FrameTx`]/[`crate::transport::FrameRx`] traits so
//!   a client can hold the far end as an ordinary [`crate::transport::Connection`].
//! - [`Signal`] — a versioned condvar replacing the `sleep(5ms)` polls in
//!   `wait_for_clients` and `wait_for_leaves`: state changes bump
//!   the version, waiters block until the version moves or a deadline
//!   passes.

use crate::transport::{FrameRx, FrameTx};
use crate::FlareError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// ReadyQueue
// ---------------------------------------------------------------------

struct ReadyState {
    queue: VecDeque<usize>,
    /// Dedup bitmap indexed by token: a token already queued is not
    /// queued again, so a chatty session cannot starve the queue.
    queued: Vec<bool>,
    closed: bool,
}

/// The reactor's readiness list; see the module docs.
pub struct ReadyQueue {
    state: Mutex<ReadyState>,
    cv: Condvar,
}

impl Default for ReadyQueue {
    fn default() -> Self {
        ReadyQueue {
            state: Mutex::new(ReadyState {
                queue: VecDeque::new(),
                queued: Vec::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }
}

impl ReadyQueue {
    /// Marks `token` ready. Idempotent while the token is still queued;
    /// a no-op after [`ReadyQueue::close`].
    pub fn notify(&self, token: usize) {
        let mut st = self.state.lock().expect("ready queue poisoned");
        if st.closed {
            return;
        }
        if token >= st.queued.len() {
            st.queued.resize(token + 1, false);
        }
        if !st.queued[token] {
            st.queued[token] = true;
            st.queue.push_back(token);
            self.cv.notify_one();
        }
    }

    /// Blocks until a token is ready (returning it) or the queue closes
    /// (returning `None`). Closing discards queued tokens: the reactor is
    /// shutting down and will not process further traffic.
    pub fn pop(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("ready queue poisoned");
        loop {
            if st.closed {
                return None;
            }
            if let Some(token) = st.queue.pop_front() {
                st.queued[token] = false;
                return Some(token);
            }
            st = self.cv.wait(st).expect("ready queue poisoned");
        }
    }

    /// Closes the queue, waking every waiter with `None`. Idempotent.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("ready queue poisoned");
        st.closed = true;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// FrameQueue
// ---------------------------------------------------------------------

struct FqState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// A session mailbox: an in-process frame channel with an optional
/// readiness notifier on the producer side; see the module docs.
pub struct FrameQueue {
    state: Mutex<FqState>,
    cv: Condvar,
    /// Notified (with the token) on every push and on close, so the
    /// reactor learns about new frames and about the peer hanging up.
    notify: Option<(Arc<ReadyQueue>, usize)>,
}

impl FrameQueue {
    /// A queue without a readiness notifier (consumer blocks in
    /// [`FrameQueue::pop_wait`]).
    pub fn new() -> Arc<Self> {
        Self::with_notifier(None)
    }

    /// A queue that marks `token` ready on `ready` after every push and
    /// on close.
    pub fn notifying(ready: Arc<ReadyQueue>, token: usize) -> Arc<Self> {
        Self::with_notifier(Some((ready, token)))
    }

    fn with_notifier(notify: Option<(Arc<ReadyQueue>, usize)>) -> Arc<Self> {
        Arc::new(FrameQueue {
            state: Mutex::new(FqState {
                frames: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            notify,
        })
    }

    /// Enqueues one frame.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] if the queue is closed (peer gone).
    pub fn push(&self, frame: Vec<u8>) -> Result<(), FlareError> {
        {
            let mut st = self.state.lock().expect("frame queue poisoned");
            if st.closed {
                return Err(FlareError::Transport("in-proc peer disconnected".into()));
            }
            st.frames.push_back(frame);
            self.cv.notify_one();
        }
        if let Some((ready, token)) = &self.notify {
            ready.notify(*token);
        }
        Ok(())
    }

    /// Closes the queue (idempotent): pushes start failing, blocked
    /// consumers wake, and the notifier fires once more so the reactor
    /// observes the closure. Frames already queued still deliver.
    pub fn close(&self) {
        {
            let mut st = self.state.lock().expect("frame queue poisoned");
            if st.closed {
                return;
            }
            st.closed = true;
            self.cv.notify_all();
        }
        if let Some((ready, token)) = &self.notify {
            ready.notify(*token);
        }
    }

    /// Non-blocking pop: `Ok(Some)` with the next frame, `Ok(None)` when
    /// the queue is empty but open.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] once the queue is closed *and* drained —
    /// buffered frames still deliver after a close.
    pub fn try_pop(&self) -> Result<Option<Vec<u8>>, FlareError> {
        let mut st = self.state.lock().expect("frame queue poisoned");
        match st.frames.pop_front() {
            Some(f) => Ok(Some(f)),
            None if st.closed => Err(FlareError::Transport("in-proc peer disconnected".into())),
            None => Ok(None),
        }
    }

    /// Blocking pop with a deadline.
    ///
    /// # Errors
    ///
    /// [`FlareError::Timeout`] if the deadline passes,
    /// [`FlareError::Transport`] once closed and drained.
    pub fn pop_wait(&self, timeout: Duration) -> Result<Vec<u8>, FlareError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("frame queue poisoned");
        loop {
            if let Some(f) = st.frames.pop_front() {
                return Ok(f);
            }
            if st.closed {
                return Err(FlareError::Transport("in-proc peer disconnected".into()));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(FlareError::Timeout);
            }
            let (guard, _timed_out) = self
                .cv
                .wait_timeout(st, left)
                .expect("frame queue poisoned");
            st = guard;
        }
    }
}

/// [`FrameTx`] adapter over a [`FrameQueue`]; dropping it closes the
/// queue, so the consumer sees a disconnect instead of hanging.
pub struct QueueTx(pub Arc<FrameQueue>);

impl FrameTx for QueueTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError> {
        self.0.push(frame.to_vec())
    }
}

impl Drop for QueueTx {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// [`FrameRx`] adapter over a [`FrameQueue`]; dropping it closes the
/// queue, so the producer's sends start failing instead of accumulating.
pub struct QueueRx(pub Arc<FrameQueue>);

impl FrameRx for QueueRx {
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError> {
        self.0.pop_wait(timeout)
    }
}

impl Drop for QueueRx {
    fn drop(&mut self) {
        self.0.close();
    }
}

// ---------------------------------------------------------------------
// Signal
// ---------------------------------------------------------------------

/// A versioned condvar: writers [`Signal::bump`] after changing shared
/// state; readers snapshot [`Signal::version`], re-check their predicate,
/// and [`Signal::wait_past`] the snapshot. A bump between the snapshot
/// and the wait returns immediately, so no wakeup can be lost — the
/// pattern that replaces the server's 5 ms sleep-polls.
pub struct Signal {
    ver: Mutex<u64>,
    cv: Condvar,
}

impl Default for Signal {
    fn default() -> Self {
        Signal {
            ver: Mutex::new(0),
            cv: Condvar::new(),
        }
    }
}

impl Signal {
    /// Current version.
    pub fn version(&self) -> u64 {
        *self.ver.lock().expect("signal poisoned")
    }

    /// Announces a state change to all waiters.
    pub fn bump(&self) {
        let mut v = self.ver.lock().expect("signal poisoned");
        *v = v.wrapping_add(1);
        self.cv.notify_all();
    }

    /// Blocks until the version moves past `since` or `deadline` passes.
    /// Returns `true` if the version changed.
    pub fn wait_past(&self, since: u64, deadline: Instant) -> bool {
        let mut v = self.ver.lock().expect("signal poisoned");
        loop {
            if *v != since {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self.cv.wait_timeout(v, left).expect("signal poisoned");
            v = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ready_queue_dedups_until_popped() {
        let rq = ReadyQueue::default();
        rq.notify(3);
        rq.notify(3);
        rq.notify(1);
        assert_eq!(rq.pop(), Some(3));
        assert_eq!(rq.pop(), Some(1));
        rq.notify(3); // re-arm after pop
        assert_eq!(rq.pop(), Some(3));
    }

    #[test]
    fn ready_queue_close_wakes_poppers() {
        let rq = Arc::new(ReadyQueue::default());
        let rq2 = Arc::clone(&rq);
        let h = std::thread::spawn(move || rq2.pop());
        std::thread::sleep(Duration::from_millis(20));
        rq.close();
        assert_eq!(h.join().unwrap(), None);
        rq.notify(0); // no-op after close
        assert_eq!(rq.pop(), None);
    }

    #[test]
    fn frame_queue_push_notifies_ready_token() {
        let rq = Arc::new(ReadyQueue::default());
        let q = FrameQueue::notifying(Arc::clone(&rq), 7);
        q.push(b"a".to_vec()).unwrap();
        assert_eq!(rq.pop(), Some(7));
        assert_eq!(q.try_pop().unwrap(), Some(b"a".to_vec()));
        assert_eq!(q.try_pop().unwrap(), None);
    }

    #[test]
    fn frame_queue_close_notifies_and_drains() {
        let rq = Arc::new(ReadyQueue::default());
        let q = FrameQueue::notifying(Arc::clone(&rq), 2);
        q.push(b"last".to_vec()).unwrap();
        q.close();
        // Buffered frame still delivers; then the closure surfaces.
        assert_eq!(q.try_pop().unwrap(), Some(b"last".to_vec()));
        assert!(matches!(q.try_pop(), Err(FlareError::Transport(_))));
        assert!(q.push(b"x".to_vec()).is_err());
        assert_eq!(rq.pop(), Some(2));
    }

    #[test]
    fn pop_wait_times_out_then_delivers() {
        let q = FrameQueue::new();
        assert!(matches!(
            q.pop_wait(Duration::from_millis(10)),
            Err(FlareError::Timeout)
        ));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.push(b"late".to_vec()).unwrap();
        });
        assert_eq!(q.pop_wait(Duration::from_secs(2)).unwrap(), b"late");
        h.join().unwrap();
    }

    #[test]
    fn queue_tx_drop_disconnects_consumer() {
        let q = FrameQueue::new();
        let tx = QueueTx(Arc::clone(&q));
        drop(tx);
        assert!(matches!(
            q.pop_wait(Duration::from_millis(10)),
            Err(FlareError::Transport(_))
        ));
    }

    #[test]
    fn queue_rx_drop_fails_producer() {
        let q = FrameQueue::new();
        let rx = QueueRx(Arc::clone(&q));
        drop(rx);
        assert!(q.push(b"x".to_vec()).is_err());
    }

    #[test]
    fn signal_wait_sees_bump_between_snapshot_and_wait() {
        let s = Arc::new(Signal::default());
        let v = s.version();
        s.bump(); // races the wait in real code; here it precedes it
        assert!(s.wait_past(v, Instant::now() + Duration::from_millis(1)));
        let v = s.version();
        assert!(!s.wait_past(v, Instant::now() + Duration::from_millis(10)));
    }

    #[test]
    fn signal_wakes_concurrent_waiters() {
        let s = Arc::new(Signal::default());
        let woken = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let woken = Arc::clone(&woken);
                let v = s.version();
                std::thread::spawn(move || {
                    if s.wait_past(v, Instant::now() + Duration::from_secs(5)) {
                        woken.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        s.bump();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woken.load(Ordering::SeqCst), 4);
    }
}
