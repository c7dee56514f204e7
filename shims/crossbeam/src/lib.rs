//! Offline stand-in for `crossbeam`.
//!
//! Provides the two pieces the workspace's parallel harness uses:
//!
//! * [`channel::bounded`] — a blocking, bounded MPMC channel. Unlike
//!   `std::sync::mpsc`, both endpoints are `Sync`, so worker closures can
//!   capture receivers by reference inside a thread scope (the crossbeam
//!   property the runtime's worker pipeline relies on).
//! * [`thread::scope`] — scoped spawning layered over `std::thread::scope`,
//!   with crossbeam's closure signature (the spawned closure receives a
//!   scope handle argument, which this shim passes as a placeholder).
//!
//! Built on `Mutex` + `Condvar`; throughput is adequate for the per-batch
//! (not per-packet) messaging the harness does.

#![warn(missing_docs)]

/// Bounded blocking channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        cap: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent value is handed back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`] when there is no message
    /// ready.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is empty but senders remain.
        Empty,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// The sending half of a bounded channel. Cloneable; the channel closes
    /// for receivers when the last clone drops.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half of a bounded channel. Cloneable (MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Creates a channel holding at most `cap` in-flight messages.
    /// `send` blocks while full; `recv` blocks while empty.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::with_capacity(cap.max(1))),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::Relaxed);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Notify under the lock: a receiver that saw a sender left
                // holds it until it is parked, so the wake-up cannot land in
                // between its check and its wait and be lost.
                let _queue = self.0.queue.lock();
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.0.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Under the lock, for the same reason as the sender's drop.
                let _queue = self.0.queue.lock();
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Blocks until there is room, then enqueues `value`. Fails only when
        /// every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.0.queue.lock().expect("channel lock");
            loop {
                if self.0.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                if queue.len() < self.0.cap {
                    queue.push_back(value);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                queue = self.0.not_full.wait(queue).expect("channel lock");
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives. Fails when the channel is empty
        /// and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.0.queue.lock().expect("channel lock");
            loop {
                if let Some(v) = queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self.0.not_empty.wait(queue).expect("channel lock");
            }
        }

        /// Takes a message if one is ready; never blocks.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.0.queue.lock().expect("channel lock");
            if let Some(v) = queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator over messages; ends when the channel closes.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }
}

/// Scoped thread spawning.
pub mod thread {
    /// Handle to a scope within which borrowing threads can be spawned.
    ///
    /// Crossbeam passes `&Scope` to spawned closures as well; since every
    /// caller in this workspace ignores that argument (`|_| …`), the shim
    /// passes a unit placeholder instead, which keeps the lifetimes simple.
    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    /// Handle to a spawned scoped thread.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish, returning its result or the panic
        /// payload.
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread scoped to `'env` borrows. The closure receives a
        /// placeholder in the position where crossbeam passes the scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(()) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle(self.0.spawn(move || f(())))
        }
    }

    /// Creates a scope for spawning threads that borrow from the caller.
    ///
    /// Returns `Ok` with the closure's result; a panicking worker propagates
    /// as a panic from this call (std semantics) rather than an `Err`, which
    /// is equivalent for callers that `.expect()` the result.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope(s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_roundtrip_across_scope() {
        let (tx, rx) = channel::bounded::<usize>(2);
        let total = thread::scope(|scope| {
            let h = scope.spawn(|_| rx.iter().sum::<usize>());
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            h.join().unwrap()
        })
        .unwrap();
        assert_eq!(total, 4950);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.send(1), Err(channel::SendError(1)));
    }

    #[test]
    fn recv_fails_after_sender_drop() {
        let (tx, rx) = channel::bounded::<u8>(4);
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        // Capacity 1: the second send must wait for the recv below.
        let (tx, rx) = channel::bounded::<usize>(1);
        thread::scope(|scope| {
            scope.spawn(|_| {
                tx.send(1).unwrap();
                tx.send(2).unwrap();
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        })
        .unwrap();
    }
}
