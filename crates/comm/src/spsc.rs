//! Lock-free unbounded single-producer single-consumer queue.
//!
//! The runtime's wire: each ordered rank pair `(src, dst)` owns exactly
//! one channel, so the single-producer/single-consumer restriction is
//! structural, not a usage convention. The queue is a
//! singly linked list with a dummy head node: the producer appends at
//! `tail` with one `Release` store, the consumer advances `head` after
//! one `Acquire` load — no CAS loops, no locks, no shared counters on
//! the fast path. Being unbounded makes every send *eager*: a push can
//! never block on the consumer, which is what guarantees crossed sends
//! cannot deadlock.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

struct Node<T> {
    value: Option<T>,
    next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    fn boxed(value: Option<T>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            value,
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

struct Shared<T> {
    /// Consumer-owned cursor (dummy node before the first live element).
    head: AtomicPtr<Node<T>>,
    /// Producer-owned cursor (last appended node).
    tail: AtomicPtr<Node<T>>,
    /// Set when the producer side is dropped.
    closed: AtomicBool,
}

// SAFETY: `head`, `tail` and `closed` are atomics. The nodes behind the
// cursors are touched only through the two halves, each of which needs
// `&mut self` to push or pop, so at most one thread produces and one
// consumes; every `T` moves from the producer to the consumer, hence
// `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: free the remaining chain.
        let mut cur = self.head.load(Ordering::Relaxed);
        while !cur.is_null() {
            // SAFETY: every node in the chain came from `Node::boxed` and
            // is freed exactly once, here or in `take`.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

/// Producing half; exactly one exists per queue, and pushing needs
/// `&mut` access to it.
pub struct SpscSender<T> {
    shared: Arc<Shared<T>>,
}

/// Consuming half; exactly one exists per queue, and popping needs
/// `&mut` access to it.
pub struct SpscReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// The receive side observed a closed, drained queue: the producing
/// rank is gone and no further message can arrive.
#[derive(Debug, PartialEq, Eq)]
pub struct Disconnected;

/// Creates a new unbounded SPSC channel.
pub fn spsc_channel<T>() -> (SpscSender<T>, SpscReceiver<T>) {
    let dummy = Node::boxed(None);
    let shared = Arc::new(Shared {
        head: AtomicPtr::new(dummy),
        tail: AtomicPtr::new(dummy),
        closed: AtomicBool::new(false),
    });
    (
        SpscSender {
            shared: Arc::clone(&shared),
        },
        SpscReceiver { shared },
    )
}

impl<T> SpscSender<T> {
    /// Appends `value`. Never blocks; the queue is unbounded.
    pub fn push(&mut self, value: T) {
        let node = Node::boxed(Some(value));
        // Producer-owned tail: no other thread ever stores it between
        // our load and store.
        let tail = self.shared.tail.load(Ordering::Relaxed);
        // SAFETY: `tail` is the last node, which the consumer never frees:
        // it frees a node only after reading a non-null `next` from it.
        unsafe { (*tail).next.store(node, Ordering::Release) };
        self.shared.tail.store(node, Ordering::Relaxed);
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> SpscReceiver<T> {
    /// Pops the next element if one is ready. `Ok(None)` means the queue
    /// is momentarily empty; [`Disconnected`] means empty *and* the
    /// sender is gone for good.
    pub fn try_pop(&mut self) -> Result<Option<T>, Disconnected> {
        let head = self.shared.head.load(Ordering::Relaxed);
        // SAFETY: `head` is the consumer-owned dummy node, live until this
        // half frees it in `take`.
        let next = unsafe { (*head).next.load(Ordering::Acquire) };
        if next.is_null() {
            // Re-check emptiness *after* observing closed, or a racing
            // final push could be missed.
            if self.shared.closed.load(Ordering::Acquire) {
                // SAFETY: as above.
                let next = unsafe { (*head).next.load(Ordering::Acquire) };
                if next.is_null() {
                    return Err(Disconnected);
                }
                return Ok(Some(self.take(head, next)));
            }
            return Ok(None);
        }
        Ok(Some(self.take(head, next)))
    }

    /// Pops the next element, spinning (then yielding) until one arrives.
    pub fn pop_blocking(&mut self) -> Result<T, Disconnected> {
        let mut spins = 0u32;
        loop {
            match self.try_pop()? {
                Some(v) => return Ok(v),
                None => {
                    // Short hot spin to catch back-to-back scan rounds,
                    // then be polite to the scheduler: rank threads may
                    // be oversubscribed on small hosts.
                    if spins < 128 {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    fn take(&mut self, head: *mut Node<T>, next: *mut Node<T>) -> T {
        // SAFETY: the `Acquire` load that returned `next` pairs with the
        // producer's `Release` store, so the node is initialised, and the
        // producer never touches its `value` again.
        let value = unsafe { (*next).value.take().expect("live node holds a value") };
        self.shared.head.store(next, Ordering::Relaxed);
        // SAFETY: the old dummy is now unreachable from both cursors (the
        // producer's `tail` is at `next` or beyond), and only this half
        // frees nodes while the queue lives.
        drop(unsafe { Box::from_raw(head) });
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_in_order() {
        let (mut tx, mut rx) = spsc_channel();
        for i in 0..100 {
            tx.push(i);
        }
        for i in 0..100 {
            assert_eq!(rx.try_pop(), Ok(Some(i)));
        }
        assert_eq!(rx.try_pop(), Ok(None));
    }

    #[test]
    fn disconnect_after_drain() {
        let (mut tx, mut rx) = spsc_channel();
        tx.push(1u32);
        drop(tx);
        assert_eq!(rx.try_pop(), Ok(Some(1)));
        assert_eq!(rx.try_pop(), Err(Disconnected));
    }

    #[test]
    fn cross_thread_stream() {
        let (mut tx, mut rx) = spsc_channel();
        let n = 50_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    tx.push(i);
                }
            });
            for i in 0..n {
                assert_eq!(rx.pop_blocking(), Ok(i));
            }
            // The last item can be drained before the producer thread
            // drops `tx`, so wait for the close rather than polling once.
            assert_eq!(rx.pop_blocking(), Err(Disconnected));
        });
    }

    #[test]
    fn drop_frees_undrained_elements() {
        let (mut tx, rx) = spsc_channel();
        for i in 0..10 {
            tx.push(vec![i; 100]);
        }
        drop(tx);
        drop(rx); // must not leak or double-free (run under the test harness)
    }
}
