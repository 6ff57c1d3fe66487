//! In-tree shim for `crossbeam` (the build environment is offline).
//!
//! Implements the `channel` module subset the workspace uses: MPMC
//! `unbounded`/`bounded` channels over `Mutex` + `Condvar` (bounded `send`
//! genuinely blocks when full), and a `select!` macro supporting the
//! two-receivers-plus-`default(timeout)` form. Not lock-free like the real
//! crate, but semantically equivalent for these uses — and a strict
//! subset of its API: nothing here lacks an upstream counterpart.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    pub use crate::select;

    /// Receiving on an empty channel whose senders are all gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the timeout.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Outcome of [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Sending on a channel whose receivers are all gone (returns the value).
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    /// Outcome of [`Sender::try_send`].
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// Bounded channel at capacity (returns the value).
        Full(T),
        /// All receivers dropped (returns the value).
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
            }
        }
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        inner: Mutex<Inner<T>>,
        /// Signalled when an item arrives or the last sender leaves.
        on_item: Condvar,
        /// Signalled when space frees up or the last receiver leaves.
        on_space: Condvar,
    }

    /// The sending half; clonable (MPMC).
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; clonable (MPMC).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a channel holding at most `cap` in-flight messages; `send`
    /// blocks while full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            on_item: Condvar::new(),
            on_space: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Blocks until the value is queued (or every receiver is gone).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.chan.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                if inner.cap.is_none_or(|c| inner.queue.len() < c) {
                    inner.queue.push_back(value);
                    self.chan.on_item.notify_one();
                    return Ok(());
                }
                inner = self.chan.on_space.wait(inner).unwrap();
            }
        }

        /// Queues the value only if there is room right now.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.chan.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            inner.queue.push_back(value);
            self.chan.on_item.notify_one();
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.inner.lock().unwrap().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.chan.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                self.chan.on_item.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives (or every sender is gone).
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.chan.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.chan.on_space.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.chan.on_item.wait(inner).unwrap();
            }
        }

        /// Like [`Receiver::recv`], giving up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.chan.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    self.chan.on_space.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .chan
                    .on_item
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        /// Takes a message only if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.chan.inner.lock().unwrap();
            if let Some(v) = inner.queue.pop_front() {
                self.chan.on_space.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.inner.lock().unwrap().receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.chan.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                self.chan.on_space.notify_all();
            }
        }
    }
}

/// A `select!` supporting the one form this workspace uses: two `recv` arms
/// plus `default(timeout)`. Implemented by polling with sub-millisecond
/// sleeps; the decision is made inside an internal loop but the arm bodies
/// run *outside* it, so a `break` in an arm still targets the caller's loop.
#[macro_export]
macro_rules! select {
    (
        recv($r1:expr) -> $m1:ident => $b1:expr,
        recv($r2:expr) -> $m2:ident => $b2:expr,
        default($d:expr) => $bd:expr $(,)?
    ) => {{
        enum __Sel<A, B> {
            R1(A),
            R2(B),
            Default,
        }
        let __deadline = ::std::time::Instant::now() + $d;
        let __choice = loop {
            match $r1.try_recv() {
                Ok(__v) => break __Sel::R1(Ok(__v)),
                Err($crate::channel::TryRecvError::Disconnected) => {
                    break __Sel::R1(Err($crate::channel::RecvError))
                }
                Err($crate::channel::TryRecvError::Empty) => {}
            }
            match $r2.try_recv() {
                Ok(__v) => break __Sel::R2(Ok(__v)),
                Err($crate::channel::TryRecvError::Disconnected) => {
                    break __Sel::R2(Err($crate::channel::RecvError))
                }
                Err($crate::channel::TryRecvError::Empty) => {}
            }
            let __now = ::std::time::Instant::now();
            if __now >= __deadline {
                break __Sel::Default;
            }
            ::std::thread::sleep(::std::cmp::min(
                __deadline - __now,
                ::std::time::Duration::from_micros(500),
            ));
        };
        match __choice {
            __Sel::R1($m1) => $b1,
            __Sel::R2($m2) => $b2,
            __Sel::Default => $bd,
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn unbounded_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        let h = std::thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn select_three_ways() {
        let (tx1, rx1) = unbounded::<u8>();
        let (_tx2, rx2) = unbounded::<u8>();
        tx1.send(7).unwrap();
        let got = crate::select! {
            recv(rx1) -> m => m.unwrap(),
            recv(rx2) -> m => m.unwrap(),
            default(Duration::from_millis(5)) => 0,
        };
        assert_eq!(got, 7);
        let got = crate::select! {
            recv(rx1) -> m => m.map(|_| 1).unwrap_or(2),
            recv(rx2) -> m => m.map(|_| 3).unwrap_or(4),
            default(Duration::from_millis(5)) => 0,
        };
        assert_eq!(got, 0);
    }
}
