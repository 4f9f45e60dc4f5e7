//! Bounded SPSC channel for the streaming executor.
//!
//! The vendored `crossbeam` shim only provides scoped threads, so the
//! pipeline's stage links are built here on `std::sync::{Mutex, Condvar}`.
//! Semantics are chosen for pipeline control flow:
//!
//! - `send` blocks while the buffer is full (backpressure) and fails once
//!   the receiver is gone — that failure is the *cancellation* signal that
//!   propagates early termination (e.g. a satisfied `Limit`) upstream.
//! - `recv` blocks while the buffer is empty and returns `None` once every
//!   sender is gone — the end-of-stream signal that drains the pipeline.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    buf: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when space frees up or the receiver disconnects.
    not_full: Condvar,
    /// Signalled when an item arrives or the last sender disconnects.
    not_empty: Condvar,
}

/// Create a bounded channel with room for `capacity` in-flight items.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// Sending half. Dropping it (the only clone, here: SPSC) ends the stream.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiver disconnected before this item could be delivered; the
/// item comes back so the caller can account for it if needed.
pub struct Disconnected<T>(pub T);

impl<T> Sender<T> {
    /// Block until there is room, then enqueue. `Err` means the receiver
    /// is gone — downstream cancelled — and carries the item back.
    pub fn send(&self, item: T) -> Result<(), Disconnected<T>> {
        let mut st = self.shared.state.lock().expect("channel lock");
        loop {
            if !st.receiver_alive {
                return Err(Disconnected(item));
            }
            if st.buf.len() < st.capacity {
                st.buf.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = self.shared.not_full.wait(st).expect("channel lock");
        }
    }

    /// Current queue depth (in-flight items). A point-in-time probe for
    /// the profiler's queue-depth gauge.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("channel lock").buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel lock");
        st.senders -= 1;
        if st.senders == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

/// Receiving half. Dropping it wakes and fails all pending/future sends.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Block until an item arrives (`Some`) or every sender is gone and
    /// the buffer is drained (`None`).
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.state.lock().expect("channel lock");
        loop {
            if let Some(item) = st.buf.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if st.senders == 0 {
                return None;
            }
            st = self.shared.not_empty.wait(st).expect("channel lock");
        }
    }

    /// Current queue depth (items buffered but not yet received).
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("channel lock").buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("channel lock");
        st.receiver_alive = false;
        st.buf.clear();
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn items_flow_in_order() {
        let (tx, rx) = bounded(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..10 {
                    tx.send(i).ok().expect("receiver alive");
                }
            });
            for i in 0..10 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn capacity_applies_backpressure() {
        let (tx, rx) = bounded(1);
        let sent = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..5 {
                    tx.send(i).ok().expect("receiver alive");
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            });
            // The producer cannot run ahead by more than capacity + the
            // one item it may be blocked on.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(sent.load(Ordering::SeqCst) <= 2);
            for i in 0..5 {
                assert_eq!(rx.recv(), Some(i));
            }
        });
    }

    #[test]
    fn dropped_receiver_fails_send_and_returns_item() {
        let (tx, rx) = bounded(1);
        drop(rx);
        match tx.send(41) {
            Err(Disconnected(item)) => assert_eq!(item, 41),
            Ok(()) => panic!("send must fail after receiver drop"),
        }
    }

    #[test]
    fn dropped_receiver_unblocks_waiting_sender() {
        let (tx, rx) = bounded(1);
        tx.send(0).ok().expect("room");
        std::thread::scope(|s| {
            let h = s.spawn(move || tx.send(1).is_err());
            std::thread::sleep(std::time::Duration::from_millis(10));
            drop(rx);
            assert!(h.join().expect("no panic"), "blocked send must fail");
        });
    }

    #[test]
    fn len_tracks_in_flight_items() {
        let (tx, rx) = bounded(4);
        assert_eq!(rx.len(), 0);
        assert!(rx.is_empty());
        tx.send(1).ok().expect("room");
        tx.send(2).ok().expect("room");
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.recv();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn dropped_sender_ends_stream() {
        let (tx, rx) = bounded(4);
        tx.send(7).ok().expect("room");
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }
}
