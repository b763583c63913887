//! Bounded MPMC job queue with blocking backpressure and graceful close.
//!
//! Producers block in [`BoundedQueue::push`] while the queue is full — that
//! is the service's backpressure mechanism: a front end reading requests
//! from a socket or stdin simply stops reading when the workers fall
//! behind. [`BoundedQueue::close`] drains gracefully: queued items are
//! still handed out, new pushes are refused, and poppers see `None` once
//! the backlog is empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Error returned by [`BoundedQueue::push`] on a closed queue; carries the
/// rejected item back to the caller.
#[derive(Debug)]
pub struct QueueClosed<T>(pub T);

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` in-flight items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy snapshot, for metrics).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueue, blocking while the queue is full. Fails only after
    /// [`BoundedQueue::close`].
    pub fn push(&self, item: T) -> Result<(), QueueClosed<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(QueueClosed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Dequeue, blocking while empty. Returns `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Refuse new items; queued items remain poppable. Idempotent.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.push(3).is_err());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_blocks_producer_until_pop() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // Give the producer time to hit the full queue, then make room.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocked_consumers_released_by_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        q.push(7).unwrap();
        q.close();
        let mut got: Vec<Option<u32>> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }
}
